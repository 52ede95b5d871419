"""Simulated BART: extractive question answering over report texts.

The paper's TextQA operator is "based on BART" and takes *question
templates* that the operator instantiates per row ("How many points did
<name> score?" → "How many points did Heat score?").  This simulator answers
instantiated questions *extractively*: it locates the sentence(s) mentioning
the asked-about entity and pulls the requested statistic out of the surface
text.  It never sees the structured box score.

Returns ``None`` when the text simply does not contain the answer — the
no-answer behaviour real extractive QA models exhibit.
"""

from __future__ import annotations

import re

from repro.errors import OperatorError

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_PLACEHOLDER_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_]*)>")

#: statistic keyword → regex capturing "<number> <keyword>"
_STAT_WORDS = {
    "points": re.compile(r"(\d+)\s+points?\b", re.IGNORECASE),
    "rebounds": re.compile(r"(\d+)\s+rebounds?\b", re.IGNORECASE),
    "assists": re.compile(r"(\d+)\s+assists?\b", re.IGNORECASE),
}

_QUESTION_RES = {
    "stat": re.compile(
        r"how many (?P<stat>points|rebounds|assists)\s+(?:did|does|has)\s+"
        r"(?:the\s+)?(?P<entity>.+?)\s+"
        r"(?:score|scored|grab|grabbed|have|had|get|got|record|recorded|"
        r"hand out|handed out|dish|dished)\??$",
        re.IGNORECASE),
    "win": re.compile(
        r"did\s+(?:the\s+)?(?P<entity>.+?)\s+win(?:\s+the\s+game)?\??$",
        re.IGNORECASE),
    "lose": re.compile(
        r"did\s+(?:the\s+)?(?P<entity>.+?)\s+lose(?:\s+the\s+game)?\??$",
        re.IGNORECASE),
    "who_won": re.compile(r"(?:who|which team) won(?:\s+the\s+game)?\??$",
                          re.IGNORECASE),
    "who_lost": re.compile(r"(?:who|which team) lost(?:\s+the\s+game)?\??$",
                           re.IGNORECASE),
}

_SCORELINE_RE = re.compile(
    r"the\s+(?P<first>[\w .'-]+?)\s+(?:defeated|beat)\s+the\s+"
    r"(?P<second>[\w .'-]+?)\s+(?P<fp>\d+)\s*-\s*(?P<sp>\d+)",
    re.IGNORECASE)
_LOST_TO_RE = re.compile(
    r"the\s+(?P<first>[\w .'-]+?)\s+lost to\s+the\s+"
    r"(?P<second>[\w .'-]+?)\s+(?P<fp>\d+)\s*-\s*(?P<sp>\d+)",
    re.IGNORECASE)


def split_sentences(text: str) -> list[str]:
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def instantiate_template(template: str, row: dict[str, object]) -> str:
    """Replace ``<column>`` placeholders in a question template."""
    def replace(match: re.Match[str]) -> str:
        column = match.group(1)
        if column not in row:
            raise OperatorError(
                f"question template references unknown column <{column}>",
                operator="Text Question Answering")
        return str(row[column])

    return _PLACEHOLDER_RE.sub(replace, template)


class BartQASim:
    """Extractive QA over one report text."""

    def answer(self, text: str, question: str) -> object:
        """Answer *question* from *text*; ``None`` when not extractable."""
        question = question.strip()
        if not question:
            raise OperatorError("empty TextQA question",
                                operator="Text Question Answering")

        match = _QUESTION_RES["stat"].search(question)
        if match:
            return self._answer_stat(text, match.group("entity"),
                                     match.group("stat").lower())
        match = _QUESTION_RES["win"].search(question)
        if match:
            return self._answer_win(text, match.group("entity"), want_win=True)
        match = _QUESTION_RES["lose"].search(question)
        if match:
            return self._answer_win(text, match.group("entity"),
                                    want_win=False)
        if _QUESTION_RES["who_won"].search(question):
            outcome = self._game_outcome(text)
            return outcome[0] if outcome else None
        if _QUESTION_RES["who_lost"].search(question):
            outcome = self._game_outcome(text)
            return outcome[1] if outcome else None
        raise OperatorError(
            f"TextQA does not understand question {question!r}",
            operator="Text Question Answering")

    # ------------------------------------------------------------------

    def _answer_stat(self, text: str, entity: str, stat: str) -> object:
        entity = entity.strip()
        pattern = _STAT_WORDS[stat]
        for sentence in split_sentences(text):
            if entity.lower() not in sentence.lower():
                continue
            found = pattern.search(sentence)
            if found:
                return int(found.group(1))
        if stat == "points":
            # Fall back to the score line of the opening sentence.
            outcome = self._game_outcome(text)
            if outcome is not None:
                winner, loser, winner_points, loser_points = (
                    outcome[0], outcome[1], outcome[2], outcome[3])
                if entity.lower() in winner.lower():
                    return winner_points
                if entity.lower() in loser.lower():
                    return loser_points
        return None

    def _answer_win(self, text: str, entity: str, want_win: bool) -> object:
        outcome = self._game_outcome(text)
        if outcome is None:
            return None
        winner, loser = outcome[0], outcome[1]
        entity = entity.strip().lower()
        if entity in winner.lower():
            return "yes" if want_win else "no"
        if entity in loser.lower():
            return "no" if want_win else "yes"
        return None

    def _game_outcome(self, text: str) -> tuple[str, str, int, int] | None:
        """(winner, loser, winner_points, loser_points) from the score line."""
        match = _SCORELINE_RE.search(text)
        if match:
            return (match.group("first").strip(), match.group("second").strip(),
                    int(match.group("fp")), int(match.group("sp")))
        match = _LOST_TO_RE.search(text)
        if match:
            # "The A lost to the B <ap> - <bp>": A is the loser.
            return (match.group("second").strip(), match.group("first").strip(),
                    int(match.group("sp")), int(match.group("fp")))
        return None
