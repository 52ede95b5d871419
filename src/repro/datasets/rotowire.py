"""The rotowire dataset (tables + texts).

Mirrors the paper's second dataset: textual game reports of basketball games
"containing important statistics (e.g. the number of scored points) of
players and teams", extended by two Wikidata-style tables for teams and
players, plus link tables connecting teams/players to games (Figure 4 shows
``teams`` joined with ``teams_to_games`` joined with ``game_reports``).

The structured box scores are kept on the dataset object as ground truth for
the evaluation oracle; the data lake itself only exposes the reports as a
TEXT collection, so statistics must be extracted with the TextQA operator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta

from repro.data import (ColumnSpec, DataLake, DataSource, DataType,
                        ForeignKey, Schema, SourceKind, Table)
from repro.text import GameBoxScore, PlayerLine, generate_report

TEAMS = [
    # (name, city, conference, division, founded)
    # Founding years are fixed constants (no RNG draw), so adding the
    # column never shifts the seeded generation stream of the other data.
    ("Heat", "Miami", "Eastern", "Southeast", 1988),
    ("Celtics", "Boston", "Eastern", "Atlantic", 1946),
    ("Knicks", "New York", "Eastern", "Atlantic", 1946),
    ("Bulls", "Chicago", "Eastern", "Central", 1966),
    ("Cavaliers", "Cleveland", "Eastern", "Central", 1970),
    ("Hawks", "Atlanta", "Eastern", "Southeast", 1946),
    ("Spurs", "San Antonio", "Western", "Southwest", 1967),
    ("Lakers", "Los Angeles", "Western", "Pacific", 1947),
    ("Warriors", "Golden State", "Western", "Pacific", 1946),
    ("Suns", "Phoenix", "Western", "Pacific", 1968),
    ("Jazz", "Salt Lake City", "Western", "Northwest", 1974),
    ("Rockets", "Houston", "Western", "Southwest", 1967),
]

#: Opening day of the synthetic season; game dates advance from here
#: deterministically in ``game_id`` alone (scale-stable, no RNG draw).
SEASON_START = date(2018, 10, 1)
_SEASON_DAYS = 170


def game_date(game_id: int) -> date:
    """The (deterministic) calendar date game *game_id* was played on."""
    return SEASON_START + timedelta(days=(game_id * 7) % _SEASON_DAYS)

_PLAYER_FIRST = ("Marcus", "Devin", "Jalen", "Andre", "Nikola", "Luka",
                 "Trae", "Kawhi", "Damian", "Pascal", "Rudy", "Klay",
                 "Jayson", "Jimmy", "Kyle", "Zach", "Fred", "Domas")
_PLAYER_LAST = ("Hartwell", "Okafor", "Petrov", "Sandoval", "Bright",
                "Kovac", "Mwangi", "Larsson", "Dubois", "Tanaka",
                "Ellison", "Moreau", "Banks", "Crowder", "Vesely", "Ng")
_NATIONALITIES = ("USA", "Canada", "France", "Serbia", "Spain", "Australia",
                  "Germany", "Nigeria", "Lithuania", "Japan")
_POSITIONS = ("Guard", "Forward", "Center")


@dataclass
class RotowireDataset:
    """Generated tables, reports, and box-score ground truth."""

    teams: Table
    players: Table
    teams_to_games: Table
    players_to_games: Table
    game_reports: Table
    box_scores: list[GameBoxScore]
    seed: int
    #: (team, game_id) → points; ground truth for the oracle only.
    team_points: dict[tuple[str, int], int] = field(default_factory=dict)
    #: (player, game_id) → (points, rebounds, assists).
    player_stats: dict[tuple[str, int], tuple[int, int, int]] = (
        field(default_factory=dict))

    def as_lake(self) -> DataLake:
        lake = DataLake(name="rotowire")
        lake.add(DataSource(
            "teams", self.teams, kind=SourceKind.TABLE,
            description=("General information about every basketball team: "
                         "name, city, conference, division and founding "
                         "year.")))
        lake.add(DataSource(
            "players", self.players, kind=SourceKind.TABLE,
            description=("General information about every player: name, "
                         "team, height, nationality and position.")))
        lake.add(DataSource(
            "teams_to_games", self.teams_to_games, kind=SourceKind.TABLE,
            description=("Link table listing which teams participated in "
                         "which games.")))
        lake.add(DataSource(
            "players_to_games", self.players_to_games, kind=SourceKind.TABLE,
            description=("Link table listing which players participated in "
                         "which games.")))
        lake.add(DataSource(
            "game_reports", self.game_reports,
            kind=SourceKind.TEXT_COLLECTION,
            description=("Textual game reports of basketball games (with "
                         "the date each game was played), containing the "
                         "important statistics of the teams and players "
                         "that participated in each game.")))
        return lake


#: The seed a lake is generated from when none is given.
DEFAULT_SEED = 11


def generate_rotowire_dataset(num_games: int = 30, seed: int = DEFAULT_SEED,
                              players_per_team: int = 4,
                              scale: float = 1.0) -> RotowireDataset:
    """Generate a seeded rotowire dataset with ``num_games * scale`` games.

    *scale* is the stress-lake multiplier exposed as ``--scale`` on the CLI
    (``scale=34`` → 1,020 games).  Generation is deterministic in
    ``(seed, scale)``.  The per-game loop appends to one list per
    column, and each table is packed once.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    num_games = max(1, round(num_games * scale))
    rng = random.Random(seed)

    team_rows = [list(row) for row in TEAMS]
    team_names = [row[0] for row in team_rows]

    # Players: unique synthetic names, several per team.
    player_rows = []
    roster: dict[str, list[str]] = {name: [] for name in team_names}
    used_names: set[str] = set()
    for team in team_names:
        for _ in range(players_per_team):
            while True:
                name = f"{rng.choice(_PLAYER_FIRST)} {rng.choice(_PLAYER_LAST)}"
                if name not in used_names:
                    used_names.add(name)
                    break
            height = rng.randint(183, 222)
            player_rows.append([name, team, height,
                                rng.choice(_NATIONALITIES),
                                rng.choice(_POSITIONS)])
            roster[team].append(name)

    box_scores: list[GameBoxScore] = []
    team_points: dict[tuple[str, int], int] = {}
    player_stats: dict[tuple[str, int], tuple[int, int, int]] = {}
    teams_to_games: dict[str, list[object]] = {"name": [], "game_id": []}
    players_to_games: dict[str, list[object]] = {"name": [], "game_id": []}
    game_reports: dict[str, list[object]] = {"game_id": [], "date": [],
                                             "report": []}

    for game_id in range(1, num_games + 1):
        home, away = rng.sample(team_names, 2)
        home_points = rng.randint(82, 128)
        away_points = rng.randint(82, 128)
        if away_points == home_points:
            away_points += 1

        lines = []
        for team in (home, away):
            total = home_points if team == home else away_points
            mentioned = rng.sample(roster[team], k=min(2, len(roster[team])))
            remaining = total
            for position, player in enumerate(mentioned):
                top = max(2, remaining // 2)
                points = rng.randint(2, min(40, top))
                remaining -= points
                rebounds = rng.randint(0, 14)
                assists = rng.randint(0, 12)
                lines.append(PlayerLine(player, team, points, rebounds,
                                        assists))
                player_stats[(player, game_id)] = (points, rebounds, assists)
                players_to_games["name"].append(player)
                players_to_games["game_id"].append(game_id)
        box = GameBoxScore(game_id, home, away, home_points, away_points,
                           lines)
        box_scores.append(box)
        team_points[(home, game_id)] = home_points
        team_points[(away, game_id)] = away_points
        teams_to_games["name"] += (home, away)
        teams_to_games["game_id"] += (game_id, game_id)
        game_reports["game_id"].append(game_id)
        game_reports["date"].append(game_date(game_id))
        game_reports["report"].append(generate_report(box, seed=seed + game_id))

    return RotowireDataset(
        teams=Table.from_rows(_TEAMS_SCHEMA, team_rows),
        players=Table.from_rows(_PLAYERS_SCHEMA, player_rows),
        teams_to_games=Table(_TEAMS_TO_GAMES_SCHEMA, teams_to_games),
        players_to_games=Table(_PLAYERS_TO_GAMES_SCHEMA, players_to_games),
        game_reports=Table(_REPORTS_SCHEMA, game_reports),
        box_scores=box_scores,
        seed=seed,
        team_points=team_points,
        player_stats=player_stats,
    )


_TEAMS_SCHEMA = Schema(
        [ColumnSpec("name", DataType.STRING, "team name"),
         ColumnSpec("city", DataType.STRING, "home city of the team"),
         ColumnSpec("conference", DataType.STRING,
                    "conference the team plays in (Eastern or Western)"),
         ColumnSpec("division", DataType.STRING, "division of the team"),
         ColumnSpec("founded", DataType.INTEGER,
                    "year the team was founded")],
        description="general information for every team",
        foreign_keys=[ForeignKey("name", "teams_to_games", "name")],
        primary_key="name")
_PLAYERS_SCHEMA = Schema(
        [ColumnSpec("name", DataType.STRING, "player name"),
         ColumnSpec("team", DataType.STRING, "team the player plays for"),
         ColumnSpec("height_cm", DataType.INTEGER,
                    "height of the player in centimeters"),
         ColumnSpec("nationality", DataType.STRING,
                    "nationality of the player"),
         ColumnSpec("position", DataType.STRING, "playing position")],
        description="general information for every player",
        foreign_keys=[ForeignKey("team", "teams", "name"),
                      ForeignKey("name", "players_to_games", "name")],
        primary_key="name")
_TEAMS_TO_GAMES_SCHEMA = Schema(
        [ColumnSpec("name", DataType.STRING, "team name"),
         ColumnSpec("game_id", DataType.INTEGER, "identifier of the game")],
        description="which team participated in which game",
        foreign_keys=[ForeignKey("name", "teams", "name"),
                      ForeignKey("game_id", "game_reports", "game_id")])
_PLAYERS_TO_GAMES_SCHEMA = Schema(
        [ColumnSpec("name", DataType.STRING, "player name"),
         ColumnSpec("game_id", DataType.INTEGER, "identifier of the game")],
        description="which player participated in which game",
        foreign_keys=[ForeignKey("name", "players", "name"),
                      ForeignKey("game_id", "game_reports", "game_id")])
_REPORTS_SCHEMA = Schema(
        [ColumnSpec("game_id", DataType.INTEGER, "identifier of the game"),
         ColumnSpec("date", DataType.DATE,
                    "calendar date the game was played on"),
         ColumnSpec("report", DataType.TEXT,
                    "textual report of the game")],
        description="textual game reports",
        foreign_keys=[ForeignKey("game_id", "teams_to_games", "game_id")])

