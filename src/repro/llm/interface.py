"""Chat-message interface between CAESURA and the (simulated) LLM.

CAESURA talks to the model exclusively through rendered chat prompts — the
same contract as a remote GPT-4 endpoint.  Any object implementing
:class:`LanguageModel` can be plugged in.

A query's :class:`Transcript` records every exchange, and its
:meth:`Transcript.ask` is where a reply bound to a plan-cache entry
(:class:`BoundReply`) is reused instead of asking the model again.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass, field
from typing import (Callable, ClassVar, Iterable, Mapping, Protocol,
                    Sequence, runtime_checkable)


class Role(enum.Enum):
    SYSTEM = "system"
    HUMAN = "human"
    AI = "ai"


@dataclass(frozen=True)
class ChatMessage:
    """One message of a chat prompt."""

    role: Role
    content: str

    def render(self) -> str:
        return f"{self.role.value.capitalize()}: {self.content}"


def system(content: str) -> ChatMessage:
    return ChatMessage(Role.SYSTEM, content)


def human(content: str) -> ChatMessage:
    return ChatMessage(Role.HUMAN, content)


def ai(content: str) -> ChatMessage:
    return ChatMessage(Role.AI, content)


@runtime_checkable
class LanguageModel(Protocol):
    """The minimal LLM contract CAESURA depends on.

    Cost hook: a model *may* additionally expose a ``cost_model``
    attribute (a :class:`~repro.obs.CostModel`) describing its token
    estimation and pricing; the engine picks it up via
    :func:`~repro.obs.resolve_cost_model`, so a simulated brain and a
    real remote model both report tokens and dollars per plan.  It is
    deliberately not part of the Protocol: the Protocol is
    ``runtime_checkable``, and widening it would break ``isinstance``
    checks against existing third-party models — absent hooks fall back
    to :data:`~repro.obs.DEFAULT_COST_MODEL`.
    """

    name: str

    def complete(self, messages: list[ChatMessage]) -> str:
        """Return the model's reply to the rendered chat prompt."""
        ...


@functools.lru_cache(maxsize=2048)
def text_digest(text: str) -> str:
    """sha256 of *text* (UTF-8), as 32 hex digits.

    Memoised per distinct string: an observation or a step's text is
    digested once, however many prompts carry it.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class Section:
    """One named part of a prompt: a digest now, its text only on demand.

    *digest* must change exactly when the text does, and must not depend
    on the process (no ``hash()``): it is stored in plan-cache files, on
    the cache tier and on a process lane's pipe.  *text* is the text, or
    a callable that builds it the first time :attr:`text` is read (it
    must read only what the digest was taken from).  An empty text is
    left out of the rendered message.
    """

    __slots__ = ("name", "digest", "_text")

    def __init__(self, name: str, digest: str,
                 text: str | Callable[[], str]):
        self.name = name
        self.digest = digest
        self._text = text

    @classmethod
    def of(cls, name: str, text: str) -> "Section":
        """A section whose text is already at hand, digested as it is."""
        return cls(name, text_digest(text), text)

    @property
    def text(self) -> str:
        if not isinstance(self._text, str):
            self._text = self._text()
        return self._text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Section({self.name!r}, {self.digest!r})"


def combine_digests(digests: Iterable[str]) -> str:
    """One digest of an ordered sequence of digests."""
    return hashlib.sha256(" ".join(digests).encode("ascii")).hexdigest()[:32]


class Prompt:
    """A chat prompt as named sections: a system message, then a human one.

    Each message is its sections' non-empty texts joined by a blank line
    (the human message by *human_separator*).  :attr:`digest` is a hash
    of the section digests, so a prompt is identified without building
    its text; :attr:`messages` renders the text, once, for the model or
    the transcript.  Section names are unique within a prompt and name
    the section a changed digest comes from (:meth:`first_changed`).
    """

    __slots__ = ("system", "human", "human_separator", "_digest",
                 "_messages")

    def __init__(self, system: Sequence[Section], human: Sequence[Section],
                 human_separator: str = "\n\n"):
        self.system = tuple(system)
        self.human = tuple(human)
        self.human_separator = human_separator
        self._digest: str | None = None
        self._messages: list[ChatMessage] | None = None

    @property
    def sections(self) -> tuple[Section, ...]:
        return self.system + self.human

    @property
    def digest(self) -> str:
        """The prompt's identity: equal exactly when the messages are.

        Section texts in the same order under the same split and
        separator render the same messages, so the section digests
        suffice; the names only say which section changed.
        """
        if self._digest is None:
            self._digest = combine_digests(
                [*(s.digest for s in self.system),
                 repr(self.human_separator),
                 *(s.digest for s in self.human)])
        return self._digest

    def section_digests(self) -> dict[str, str]:
        """Each section's digest by name, in prompt order."""
        return {section.name: section.digest for section in self.sections}

    def first_changed(self, digests: Mapping[str, str]) -> str:
        """The name of the first section whose digest differs from
        *digests* (what a bound reply answered), or ``"unknown"`` when
        none was kept or none differs by name."""
        if digests:
            for section in self.sections:
                if digests.get(section.name) != section.digest:
                    return section.name
        return "unknown"

    @property
    def messages(self) -> list[ChatMessage]:
        """The rendered chat messages, built on first use."""
        if self._messages is None:
            self._messages = [
                system("\n\n".join(_texts(self.system))),
                human(self.human_separator.join(_texts(self.human)))]
        return self._messages


def _texts(sections: tuple[Section, ...]) -> list[str]:
    return [text for text in (section.text for section in sections) if text]


@dataclass(frozen=True)
class BoundReply:
    """One model reply, remembered with the prompt it answered.

    *digest* identifies the exact prompt (:attr:`Prompt.digest`);
    *response* is the model's reply text, verbatim, so a reuse goes
    through the same parser a live reply does.  *sections* keeps the
    prompt's section digests by name, so a later miss can say which
    section changed; a reply stored before sections existed has none.
    """

    #: the *digest* of a plan stored when plans were keyed by the lake's
    #: shape: it serves the first prompt asked under its label, and is
    #: bound to that prompt from then on
    UNBOUND: ClassVar[str] = ""

    digest: str
    response: str
    sections: Mapping[str, str] = field(default_factory=dict,
                                        compare=False)

    def to_dict(self) -> dict:
        data = {"digest": self.digest, "response": self.response}
        if self.sections:
            data["sections"] = dict(self.sections)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BoundReply":
        return cls(digest=data["digest"], response=data["response"],
                   sections=dict(data.get("sections") or {}))


@dataclass
class TranscriptEntry:
    """One prompt/response exchange, kept for inspection and tests."""

    label: str
    messages: list[ChatMessage]
    response: str


@dataclass
class Transcript:
    """Ordered record of every LLM call made while answering a query.

    *entries* lists only prompts actually sent.  *bound* holds the
    replies a plan-cache entry carries, by label, for :meth:`ask` to
    reuse; *replies* the reply behind each label's latest ask (``None``
    after a retry) — what a clean run binds back into the cache; and
    *outcomes* the outcome of every ask the engine has not yet reported.
    """

    entries: list[TranscriptEntry] = field(default_factory=list)
    bound: dict[str, BoundReply | None] = field(default_factory=dict)
    replies: dict[str, BoundReply | None] = field(default_factory=dict)
    outcomes: list[str] = field(default_factory=list)

    def record(self, label: str, messages: list[ChatMessage],
               response: str) -> None:
        self.entries.append(TranscriptEntry(label, list(messages), response))

    def ask(self, model: LanguageModel, label: str, prompt: Prompt,
            retry: bool = False) -> str:
        """The reply to *prompt*, reused or fresh from *model*.

        The reply bound under *label* is reused only when it answered a
        prompt with the same :attr:`~Prompt.digest` (or is
        :attr:`~BoundReply.UNBOUND`); otherwise *model* is sent the
        rendered messages and the exchange recorded.  The outcome is kept
        either way — ``"hit"``, or why not (``"absent"``,
        ``"digest_changed:<section>"`` naming the first section that
        differs, ``"retry"``).  A *retry* (a prompt carrying error
        feedback) is never served from, or kept for, the cache.
        """
        stored = None if retry else self.bound.get(label)
        if stored is not None and stored.digest in (prompt.digest,
                                                    BoundReply.UNBOUND):
            self.outcomes.append("hit")
            self.replies[label] = (
                stored if stored.digest else BoundReply(
                    prompt.digest, stored.response, prompt.section_digests()))
            return stored.response
        if retry:
            self.outcomes.append("retry")
        elif stored is None:
            self.outcomes.append("absent")
        else:
            self.outcomes.append(
                f"digest_changed:{prompt.first_changed(stored.sections)}")
        self.replies[label] = None
        response = model.complete(prompt.messages)
        self.record(label, prompt.messages, response)
        if not retry:
            self.replies[label] = BoundReply(prompt.digest, response,
                                             prompt.section_digests())
        return response

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [entry.label for entry in self.entries]
