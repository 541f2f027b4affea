"""Chat-completion client with a file-backed response cache.

Each (model, prompt) pair maps to one cache file, so recorded responses can
be committed and replayed to run the whole pipeline offline. Replayed calls
also replay their recorded token counts, keeping usage statistics stable
across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Tuple

from .core import checked_int, checked_number
from .errors import LlmTransport
from .ingest import OutputFile

API_KEY_ENV = "CAPGRAPH_API_KEY"

DEFAULT_INPUT_PRICE_PER_MILLION = 0.5
DEFAULT_OUTPUT_PRICE_PER_MILLION = 1.5
REQUEST_TIMEOUT_S = 60.0


def _requests():
    """The ``requests`` module, imported on the first network call: it is
    slow to import, and replayed and offline runs never use it."""
    import requests

    return requests


@dataclass
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0
    estimated_cost: float = 0.0

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0 or not (
            0 <= self.estimated_cost < math.inf
        ):
            raise ValueError("token usage fields must be non-negative and finite")

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
            self.estimated_cost + other.estimated_cost,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TokenUsage":
        """Inverse of ``to_dict``; a token count that is not a non-negative
        integer (``core.checked_int``) or a cost that is not a number
        (``core.checked_number``) raises ``ValueError``."""
        return cls(
            input_tokens=checked_int("input_tokens", d.get("input_tokens", 0)),
            output_tokens=checked_int("output_tokens", d.get("output_tokens", 0)),
            estimated_cost=checked_number("estimated_cost", d.get("estimated_cost", 0.0)),
        )


def estimate_cost(
    input_tokens: int,
    output_tokens: int,
    input_price_per_million: float = DEFAULT_INPUT_PRICE_PER_MILLION,
    output_price_per_million: float = DEFAULT_OUTPUT_PRICE_PER_MILLION,
) -> float:
    """Dollar cost of one call: (in/1M)*in_price + (out/1M)*out_price."""
    return (input_tokens / 1_000_000) * input_price_per_million + (
        output_tokens / 1_000_000
    ) * output_price_per_million


def cache_key(model_name: str, prompt: str) -> str:
    digest = hashlib.sha256()
    digest.update(model_name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class ChatClient:
    """Cached chat-completion transport.

    ``complete`` first consults the cache; on a miss it POSTs to the endpoint
    (unless ``offline``), retries transient failures, then checks the reply
    as a replay checks a cassette (``_checked_reply``) and records it. A
    retried 429 or 503 waits as its ``Retry-After`` header asks; a malformed
    200 reply is not retried and records nothing.
    Token usage from every call, cached or live, accumulates on ``usage``.
    Threads may share a client: ``_lock`` guards only the counters, so calls
    do not wait on each other's network round trips.

    ``replies`` maps a cache key to its recorded ``(response, input_tokens,
    output_tokens)``, so each cache file is read at most once per memo. A
    client given none keeps its own; the clients of one run share one dict.
    Only replies that passed ``_checked_reply`` go into it. Two threads that miss it at once
    both read the file, which is harmless.
    """

    def __init__(
        self,
        model_name: str,
        endpoint: str = "",
        temperature: float = 0.0,
        max_retries: int = 2,
        cache_dir=None,
        offline: bool = False,
        input_price_per_million: float = DEFAULT_INPUT_PRICE_PER_MILLION,
        output_price_per_million: float = DEFAULT_OUTPUT_PRICE_PER_MILLION,
        replies: Optional[dict] = None,
    ):
        self.model_name = model_name
        self.endpoint = endpoint
        self.temperature = temperature
        self.max_retries = max_retries
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.offline = offline
        self.input_price_per_million = input_price_per_million
        self.output_price_per_million = output_price_per_million
        self.replies = {} if replies is None else replies
        self.usage = TokenUsage()
        self.network_calls = 0
        self._lock = threading.Lock()

    # -- cache ------------------------------------------------------------

    def _checked_reply(self, text, counts: dict, fields: Tuple[str, str, str]) -> tuple:
        """``(text, input_tokens, output_tokens)`` of a reply that can be
        recorded and replayed: ``text`` is a string, each count
        (``counts[field]``, 0 when absent) is a non-negative integer
        (``core.checked_int``), and the two price to a finite cost.
        ``fields`` names the text and the two counts: a cassette's
        ``response``, ``input_tokens``
        and ``output_tokens``, or a completion payload's ``content``,
        ``prompt_tokens`` and ``completion_tokens``. Otherwise ``ValueError``
        names the field.
        A cassette and a network reply pass this one check, so nothing is
        recorded that a replay would reject."""
        text_field, *count_fields = fields
        if not isinstance(text, str):
            raise ValueError(f"no string {text_field}")
        tokens = [checked_int(field, counts.get(field, 0)) for field in count_fields]
        try:
            cost = estimate_cost(
                *tokens, self.input_price_per_million, self.output_price_per_million
            )
        except OverflowError:
            cost = math.inf
        if cost == math.inf:
            raise ValueError("its token counts are too large to price")
        return (text, *tokens)

    def _cache_read(self, key: str) -> Optional[tuple]:
        """The recorded ``(response, input_tokens, output_tokens)`` for
        ``key``, or None on a miss.

        A path that cannot be read or does not hold a recorded reply
        (``_checked_reply``) raises ``LlmTransport`` naming it.
        """
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except OSError as e:
            raise LlmTransport(f"{path}: cannot read cache file: {e.strerror or e}") from e
        except (ValueError, RecursionError) as e:
            raise LlmTransport(f"{path}: corrupt cache file: {e}") from e
        if not isinstance(record, dict):
            raise LlmTransport(f"{path}: corrupt cache file: no recorded response")
        try:
            return self._checked_reply(
                record.get("response"), record, ("response", "input_tokens", "output_tokens")
            )
        except ValueError as e:
            raise LlmTransport(f"{path}: corrupt cache file: {e}") from e

    def _replay(self, key: str) -> Optional[tuple]:
        """``(response, input_tokens, output_tokens)`` recorded for ``key``,
        from ``replies`` or else from the cache file, or None on a miss."""
        if key in self.replies:
            return self.replies[key]
        reply = self._cache_read(key)
        if reply is not None:
            self.replies[key] = reply
        return reply

    # -- transport ---------------------------------------------------------

    def _post(self, prompt: str):
        """POST ``prompt`` and return the endpoint's 200 response, retrying
        a failed request and a 429, 500, 502, 503 or 504 status. The body is
        read by ``complete``: a 200 whose body is not JSON is a malformed
        reply, not a failed request, and is not retried."""
        api_key = os.environ.get(API_KEY_ENV, "")
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.model_name,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        requests = _requests()
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            delay = min(2.0**attempt, 8.0)
            try:
                with self._lock:
                    self.network_calls += 1
                response = requests.post(
                    self.endpoint, json=body, headers=headers, timeout=REQUEST_TIMEOUT_S
                )
                if response.status_code in (429, 500, 502, 503, 504):
                    last_error = LlmTransport(f"HTTP {response.status_code}")
                    if response.status_code in (429, 503):
                        delay = _retry_after(response.headers.get("Retry-After"), delay)
                elif response.status_code != 200:
                    raise LlmTransport(f"HTTP {response.status_code}: {response.text[:200]}")
                else:
                    return response
            except requests.RequestException as e:
                last_error = e
            if attempt < self.max_retries:
                time.sleep(delay)
        raise LlmTransport(f"request failed after {self.max_retries + 1} attempts: {last_error}")

    def complete(self, prompt: str) -> str:
        key = cache_key(self.model_name, prompt)
        replayed = self._replay(key)
        if replayed is not None:
            text, input_tokens, output_tokens = replayed
            self._account(key, input_tokens, output_tokens)
            return text
        if self.offline:
            raise LlmTransport(f"offline mode and no cached response for key {key[:12]}…")
        response = self._post(prompt)
        # A malformed reply is not retried: the endpoint answered, and would
        # most likely answer the same again, at the same price.
        malformed = f"key {key[:12]}…: malformed completion payload"
        try:
            payload = response.json()
            text = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage", {})
        except (ValueError, RecursionError, KeyError, IndexError, TypeError, AttributeError) as e:
            raise LlmTransport(f"{malformed}: {e!r}") from e
        if not isinstance(usage, dict):
            raise LlmTransport(f"{malformed}: usage {usage!r} is not an object")
        try:
            reply = self._checked_reply(
                text, usage, ("content", "prompt_tokens", "completion_tokens")
            )
        except ValueError as e:
            raise LlmTransport(f"{malformed}: {e}") from e
        text, input_tokens, output_tokens = reply
        if self.cache_dir is not None:
            write_cassette(
                self.cache_dir, self.model_name, prompt, text, input_tokens, output_tokens
            )
            self.replies[key] = reply
        self._account(key, input_tokens, output_tokens)
        return text

    def _account(self, key: str, input_tokens: int, output_tokens: int) -> None:
        """Add one reply's tokens and cost to ``usage``. A cost sum too large
        for a float raises ``LlmTransport`` naming the reply's cache file, or
        its key when the client keeps no cache."""
        usage = TokenUsage(
            input_tokens,
            output_tokens,
            estimate_cost(
                input_tokens,
                output_tokens,
                self.input_price_per_million,
                self.output_price_per_million,
            ),
        )
        with self._lock:
            try:
                self.usage = self.usage + usage
            except ValueError as e:  # TokenUsage rejects a cost sum that overflowed
                where = self.cache_dir / f"{key}.json" if self.cache_dir else f"key {key[:12]}…"
                raise LlmTransport(
                    f"{where}: the estimated cost summed up to this reply is too large "
                    "for a float"
                ) from e


def _retry_after(value: Optional[str], backoff: float) -> float:
    """The delta-seconds of a ``Retry-After`` header, capped at 60 s, or
    ``backoff`` when the header is absent or not delta-seconds."""
    if value is None or not value.strip().isdecimal():
        return backoff
    return min(float(value), 60.0)


def write_cassette(cache_dir, model_name: str, prompt: str, response: str,
                   input_tokens: int = 0, output_tokens: int = 0) -> Path:
    """Record a response so later calls replay it without network.

    The record is written by ``ingest.OutputFile``: into a temporary file
    unique to this call, renamed into place whole, so a reader never sees a
    partial file, a crash leaves the previous record intact, and concurrent
    writers of one key do not collide. It gets the mode every output gets
    (0666 under the umask). A record that cannot be written raises
    ``errors.write_failure``'s error naming its path, and leaves no temporary
    file.
    """
    key = cache_key(model_name, prompt)
    path = Path(cache_dir) / f"{key}.json"
    text = json.dumps(
        {
            "model": model_name,
            "response": response,
            "input_tokens": input_tokens,
            "output_tokens": output_tokens,
        },
        sort_keys=True,
        indent=1,
    )
    with OutputFile(path) as out:
        out.write_binary(text.encode("utf-8"))
    return path
