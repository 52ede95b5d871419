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
import hashlib
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable


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


def prompt_digest(messages: list[ChatMessage]) -> str:
    """Digest of one rendered chat prompt (roles and contents, in order).

    Two prompts digest equally iff the model would be sent the same
    text; a :class:`BoundReply` is reused on exactly that condition.
    """
    digest = hashlib.sha256()
    for message in messages:
        digest.update(message.role.value.encode("ascii"))
        digest.update(b"\0")
        digest.update(message.content.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class BoundReply:
    """One model reply, remembered with the prompt it answered.

    *digest* identifies the exact prompt (:func:`prompt_digest`);
    *response* is the model's reply text, verbatim, so a reuse goes
    through the same parser a live reply does.
    """

    digest: str
    response: str

    def to_dict(self) -> dict:
        return {"digest": self.digest, "response": self.response}

    @classmethod
    def from_dict(cls, data: dict) -> "BoundReply":
        return cls(digest=data["digest"], response=data["response"])


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
    bound: dict[str, BoundReply] = field(default_factory=dict)
    replies: dict[str, BoundReply | None] = field(default_factory=dict)
    outcomes: list[str] = field(default_factory=list)

    def record(self, label: str, messages: list[ChatMessage],
               response: str) -> None:
        self.entries.append(TranscriptEntry(label, list(messages), response))

    def ask(self, model: LanguageModel, label: str,
            messages: list[ChatMessage], retry: bool = False) -> str:
        """The reply to *messages*, reused or fresh from *model*.

        The reply bound under *label* is reused only when it answered a
        prompt with the same digest; otherwise *model* is asked and the
        exchange recorded.  The outcome is kept either way — ``"hit"``,
        or why not (``"absent"``, ``"digest_changed"``, ``"retry"``).  A
        *retry* (a prompt carrying error feedback) is never served from,
        or kept for, the cache.
        """
        stored = None if retry else self.bound.get(label)
        digest = None if retry else prompt_digest(messages)
        if stored is not None and stored.digest == digest:
            self.outcomes.append("hit")
            self.replies[label] = stored
            return stored.response
        self.outcomes.append("retry" if retry else "absent" if stored is None
                             else "digest_changed")
        self.replies[label] = None
        response = model.complete(messages)
        self.record(label, messages, response)
        if not retry:
            self.replies[label] = BoundReply(digest, response)
        return response

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [entry.label for entry in self.entries]
