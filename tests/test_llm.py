import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from unittest import mock

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st
from click.testing import CliRunner

import capgraph
import capgraph.llm as llm
from capgraph import ingest
from capgraph import segment as segment_mod
from capgraph.cli import main
from capgraph.errors import IoFailure, LlmTransport
from capgraph.llm import ChatClient, TokenUsage, cache_key, write_cassette
from fixture_builder import MODEL, V1_CAPTION


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = json.dumps(self._payload)
        self.headers = headers or {}

    def json(self):
        return self._payload


def _ok_payload(text="1. ok", prompt_tokens=12, completion_tokens=4):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class TestTransport:
    def test_success_records_cassette_and_usage(self, tmp_path, monkeypatch):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append((url, json, headers))
            return FakeResponse(200, _ok_payload())

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setenv(llm.API_KEY_ENV, "secret-key")
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        reply = client.complete("hello")
        assert reply == "1. ok"
        assert client.usage.input_tokens == 12
        assert calls[0][2]["Authorization"] == "Bearer secret-key"
        assert calls[0][1]["temperature"] == 0.0
        # Cached now: replay without network.
        offline = ChatClient("m", cache_dir=tmp_path, offline=True)
        assert offline.complete("hello") == "1. ok"
        assert offline.network_calls == 0

    @pytest.mark.parametrize("refused", ["create", "replace"])
    def test_a_cassette_that_cannot_be_written_names_it_and_records_nothing(
        self, tmp_path, monkeypatch, refused
    ):
        # Refused when the writer creates its temporary file, or when it
        # renames it into place: either way no file is left and no reply is
        # memoized.
        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, _ok_payload()))
        if refused == "create":
            monkeypatch.setattr(ingest, "open", deny, raising=False)
        else:
            monkeypatch.setattr(ingest.os, "replace", deny)
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        path = tmp_path / f"{cache_key('m', 'hello')}.json"
        with pytest.raises(IoFailure) as err:
            client.complete("hello")
        assert str(err.value) == f"cannot write {path}: Permission denied"
        assert list(tmp_path.iterdir()) == []
        assert client.replies == {}
        assert client.usage == TokenUsage()

    def test_retries_then_succeeds(self, tmp_path, monkeypatch):
        attempts = []

        def flaky_post(url, json=None, headers=None, timeout=None):
            attempts.append(1)
            if len(attempts) < 3:
                return FakeResponse(503, {})
            return FakeResponse(200, _ok_payload("steady"))

        monkeypatch.setattr(requests, "post", flaky_post)
        monkeypatch.setattr(llm.time, "sleep", lambda s: None)
        client = ChatClient("m", endpoint="http://example/chat", max_retries=2,
                            cache_dir=tmp_path)
        assert client.complete("x") == "steady"
        assert len(attempts) == 3

    @pytest.mark.parametrize(
        "status, retry_after, delays",
        [(503, "3", [3.0]), (429, "120", [60.0]), (503, "soon", [1.0]), (500, "3", [1.0])],
        ids=["honoured", "capped", "unparseable", "not-429-or-503"],
    )
    def test_retry_after_sets_the_wait(self, tmp_path, monkeypatch, status, retry_after,
                                       delays):
        replies = [FakeResponse(status, {}, {"Retry-After": retry_after}),
                   FakeResponse(200, _ok_payload())]
        slept = []
        monkeypatch.setattr(requests, "post", lambda *a, **k: replies.pop(0))
        monkeypatch.setattr(llm.time, "sleep", slept.append)
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        assert client.complete("x") == "1. ok"
        assert slept == delays

    def test_threads_do_not_wait_on_each_others_post(self, tmp_path, monkeypatch):
        # Each POST returns only once both are in flight, which a lock held
        # across the POST forbids.
        barrier = threading.Barrier(2, timeout=5)

        def post(url, json=None, headers=None, timeout=None):
            barrier.wait()
            return FakeResponse(200, _ok_payload())

        monkeypatch.setattr(requests, "post", post)
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        replies, errors = [], []

        def call(prompt):
            try:
                replies.append(client.complete(prompt))
            except Exception as e:  # recorded for the assertion below
                errors.append(e)

        threads = [threading.Thread(target=call, args=(p,)) for p in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert replies == ["1. ok", "1. ok"]
        assert client.network_calls == 2
        assert client.usage.input_tokens == 24
        assert client.usage.output_tokens == 8

    def test_transport_error_after_retries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            requests, "post",
            lambda *a, **k: (_ for _ in ()).throw(requests.ConnectionError("down")),
        )
        monkeypatch.setattr(llm.time, "sleep", lambda s: None)
        client = ChatClient("m", endpoint="http://example/chat", max_retries=1,
                            cache_dir=tmp_path)
        with pytest.raises(LlmTransport):
            client.complete("x")

    def test_non_retryable_status_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse(401, {"error": "no"})
        )
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        with pytest.raises(LlmTransport):
            client.complete("x")

    def test_offline_without_cassette(self, tmp_path):
        client = ChatClient("m", cache_dir=tmp_path, offline=True)
        with pytest.raises(LlmTransport):
            client.complete("never recorded")


def _payload(content="1. ok", **usage):
    return {"choices": [{"message": {"content": content}}], "usage": usage}


class TestMalformedReply:
    """A 200 reply that a replay of its cassette would reject stops the
    command with exit 1, naming the key and the field; it is not retried and
    records no cassette."""

    # The fixture's first video (by id) is segmented first.
    KEY = cache_key(MODEL, segment_mod.build_prompt(V1_CAPTION))[:12]

    @pytest.fixture(params=[
        (_payload(None), "no string content"),
        (_payload(3), "no string content"),
        (_payload(["1. ok"]), "no string content"),
        ({"choices": [{"message": {"content": "1. ok"}}], "usage": [12, 4]},
         "usage [12, 4] is not an object"),
        (_payload(prompt_tokens="abc"), "prompt_tokens 'abc' is not a non-negative integer"),
        (_payload(prompt_tokens=None), "prompt_tokens None is not a non-negative integer"),
        # A fractional count is rejected, not truncated.
        (_payload(prompt_tokens=1.5), "prompt_tokens 1.5 is not a non-negative integer"),
        (_payload(completion_tokens=-1), "completion_tokens -1 is not a non-negative integer"),
        (_payload(completion_tokens=10**400), "its token counts are too large to price"),
    ], ids=["content-null", "content-3", "content-list", "usage-list", "prompt-abc",
            "prompt-null", "prompt-1.5", "completion-negative", "completion-huge"])
    def bad_reply(self, request, monkeypatch):
        """The drawn payload's reason; every POST answers it with a 200."""
        payload, reason = request.param
        self.posts = []
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.posts.append(a) or
                            FakeResponse(200, payload))
        return reason

    def test_segment_exits_1_and_records_nothing(self, bad_reply, data_root, tmp_path):
        cache = tmp_path / "cache"
        result = CliRunner().invoke(main, [
            "segment", "--data-root", str(data_root), "--out", str(tmp_path / "raw.ndjson"),
            "--tcs-mode", "llm", "--cache-dir", str(cache),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"error: key {self.KEY}…: malformed completion payload: {bad_reply}\n"
                in result.output)
        assert len(self.posts) == 1
        assert not cache.exists() or not list(cache.iterdir())
        assert not (tmp_path / "raw.ndjson").exists()

    def test_run_all_exits_1_naming_the_key(self, bad_reply, data_root, tmp_path):
        cache = tmp_path / "cache"
        result = CliRunner().invoke(main, [
            "run-all", "--data-root", str(data_root), "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(cache),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"error: stage 'process' failed: key {self.KEY}…: malformed completion "
                f"payload: {bad_reply}\n") in result.output
        assert not cache.exists() or not list(cache.iterdir())
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", [b"<html>gateway</html>", b"", b"[" * 100_000],
                             ids=["html", "empty", "nested-past-the-recursion-limit"])
    def test_a_body_that_is_not_json_is_not_retried_and_names_the_key(
        self, monkeypatch, tmp_path, body
    ):
        # A real Response: its json() raises requests' JSONDecodeError, which
        # is a RequestException too, and so is no reason to retry.
        def post(*args, **kwargs):
            posts.append(args)
            response = requests.Response()
            response.status_code = 200
            response._content = body
            return response

        posts, slept = [], []
        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(llm.time, "sleep", slept.append)
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        with pytest.raises(LlmTransport, match=re.escape(
            f"key {cache_key('m', 'hello')[:12]}…: malformed completion payload: "
        )):
            client.complete("hello")
        assert (len(posts), slept) == (1, [])
        assert not list(tmp_path.iterdir())

    def test_a_payload_without_choices_names_the_key(self, monkeypatch, tmp_path):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, {"x": 1}))
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path)
        with pytest.raises(LlmTransport, match=re.escape(
            f"key {cache_key('m', 'hello')[:12]}…: malformed completion payload: "
            "KeyError('choices')"
        )):
            client.complete("hello")
        assert not list(tmp_path.iterdir())


# Completion payloads of every shape a 200 reply may carry: well formed, with
# a content or a count of the wrong type or size, or missing a level.
_COUNTS = (st.integers(-2, 10**6) | st.sampled_from([10**400, 1.5, True, None, "7", [3]])
           | st.floats())
_CONTENTS = st.text(max_size=8) | st.none() | st.integers() | st.lists(st.text(max_size=3),
                                                                       max_size=2)
_USAGES = st.fixed_dictionaries({}, optional={
    "prompt_tokens": _COUNTS, "completion_tokens": _COUNTS,
}) | st.sampled_from([None, [12, 4], "12", 3])
_MESSAGES = st.fixed_dictionaries({}, optional={"content": _CONTENTS}) | st.sampled_from(
    [None, "1. ok", ["1. ok"]])
_CHOICES = st.lists(st.fixed_dictionaries({}, optional={"message": _MESSAGES}), max_size=2) \
    | st.sampled_from([None, {}, "choices", {"0": {"message": {"content": "1. ok"}}}])
_PAYLOADS = st.fixed_dictionaries({}, optional={"choices": _CHOICES, "usage": _USAGES}) \
    | st.sampled_from([None, [], "1. ok", 3])


@given(payload=_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_a_200_payload_is_recorded_and_replayable_or_rejected_naming_its_key(payload):
    """Each 200 payload either returns its text and writes one cassette that an
    offline replay accepts, or raises ``LlmTransport`` naming the key after
    exactly one POST, with nothing written."""
    posts, slept = [], []

    def post(*args, **kwargs):
        posts.append(args)
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps(payload).encode()
        return response

    key = cache_key("m", "hello")
    with tempfile.TemporaryDirectory() as cache, \
            mock.patch.object(requests, "post", post), \
            mock.patch.object(llm.time, "sleep", slept.append):
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=cache)
        try:
            text = client.complete("hello")
        except LlmTransport as e:
            assert str(e).startswith(f"key {key[:12]}…: malformed completion payload: ")
            assert os.listdir(cache) == []
        else:
            assert text == payload["choices"][0]["message"]["content"]
            assert os.listdir(cache) == [f"{key}.json"]
            replay = ChatClient("m", cache_dir=cache, offline=True)
            assert replay.complete("hello") == text
            assert (replay.usage, replay.network_calls) == (client.usage, 0)
        assert (len(posts), slept) == (1, [])


class TestLazyRequests:
    def test_importing_the_cli_leaves_requests_unimported(self):
        package_root = os.path.dirname(os.path.dirname(capgraph.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (package_root, env.get("PYTHONPATH")))
        )
        code = "import sys, capgraph.cli; print('requests' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestCacheKey:
    def test_distinct_models_distinct_keys(self):
        assert cache_key("a", "p") != cache_key("b", "p")

    def test_distinct_prompts_distinct_keys(self):
        assert cache_key("m", "p1") != cache_key("m", "p2")

    def test_cassette_path_uses_key(self, tmp_path):
        path = write_cassette(tmp_path, "m", "prompt", "reply")
        assert path.name == f"{cache_key('m', 'prompt')}.json"


class TestCacheFiles:
    def test_corrupt_cache_file_names_it(self, tmp_path):
        path = write_cassette(tmp_path, "m", "hello", "1. ok")
        path.write_text(path.read_text()[:10])
        client = ChatClient("m", cache_dir=tmp_path, offline=True)
        with pytest.raises(LlmTransport, match=re.escape(str(path))):
            client.complete("hello")

    def test_directory_at_a_cassette_path_names_it(self, tmp_path):
        path = tmp_path / f"{cache_key('m', 'hello')}.json"
        path.mkdir()
        client = ChatClient("m", cache_dir=tmp_path, offline=True)
        with pytest.raises(LlmTransport, match=re.escape(f"{path}: cannot read cache file")):
            client.complete("hello")

    def test_cassette_nested_past_the_recursion_limit_names_it(self, tmp_path):
        path = write_cassette(tmp_path, "m", "hello", "1. ok")
        path.write_text("[" * 100_000)
        client = ChatClient("m", cache_dir=tmp_path, offline=True)
        with pytest.raises(LlmTransport, match=re.escape(str(path))):
            client.complete("hello")

    @pytest.mark.parametrize("field", ["input_tokens", "output_tokens"])
    @pytest.mark.parametrize("count", ["12", None, -3, 1.5, True])
    def test_token_count_that_is_not_a_non_negative_integer_names_it(self, tmp_path, field,
                                                                      count):
        path = write_cassette(tmp_path, "m", "hello", "1. ok", 12, 4)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **{field: count})))
        client = ChatClient("m", cache_dir=tmp_path, offline=True, replies={})
        with pytest.raises(LlmTransport, match=re.escape(str(path)) + f".*{field}"):
            client.complete("hello")
        assert client.replies == {}
        assert client.usage == TokenUsage()

    def test_concurrent_writers_of_one_key(self, tmp_path):
        # Writers keep replacing one cassette while readers replay it: no
        # reader may see a partial file and no writer may lose its rename.
        path = write_cassette(tmp_path, "m", "p", "first")
        errors = []
        deadline = time.monotonic() + 1.0

        def write(worker):
            try:
                n = 0
                while time.monotonic() < deadline:
                    write_cassette(tmp_path, "m", "p", f"{worker}:{n} " + "x" * 20000)
                    n += 1
            except Exception as e:  # recorded for the assertion below
                errors.append(e)

        def read():
            client = ChatClient("m", cache_dir=tmp_path, offline=True)
            try:
                while time.monotonic() < deadline:
                    client.complete("p")
            except Exception as e:  # recorded for the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
            threads += [threading.Thread(target=read) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert json.loads(path.read_text())["response"].endswith("x" * 20000)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestCostSumOverflow:
    """Each reply prices at 1.5e308, below the float range; two do not."""

    def test_second_replay_of_a_cassette_names_it(self, tmp_path):
        path = write_cassette(tmp_path, "m", "hello", "1. ok", 0, 10**314)
        client = ChatClient("m", cache_dir=tmp_path, offline=True)
        client.complete("hello")
        with pytest.raises(LlmTransport, match=re.escape(
            f"{path}: the estimated cost summed up to this reply is too large for a float"
        )):
            client.complete("hello")
        assert client.usage.output_tokens == 10**314

    def test_second_network_reply_without_a_cache_names_its_key(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(
            200, _ok_payload(completion_tokens=10**314)
        ))
        client = ChatClient("m", endpoint="http://example/chat")
        client.complete("hello")
        with pytest.raises(LlmTransport, match=re.escape(
            f"key {cache_key('m', 'hello')[:12]}…: the estimated cost summed up to this reply"
        )):
            client.complete("hello")


class TestReplyMemo:
    @pytest.fixture
    def reads(self, monkeypatch):
        """Names of the files the clients read, one entry per read."""
        reads = []
        read_text = llm.Path.read_text
        monkeypatch.setattr(
            llm.Path, "read_text",
            lambda self, *a, **k: reads.append(self.name) or read_text(self, *a, **k),
        )
        return reads

    def test_clients_sharing_a_memo_read_each_file_once(self, tmp_path, reads):
        write_cassette(tmp_path, "m", "hello", "1. ok", 12, 4)
        replies = {}
        first = ChatClient("m", cache_dir=tmp_path, offline=True, replies=replies)
        second = ChatClient("m", cache_dir=tmp_path, offline=True, replies=replies)
        assert [first.complete("hello"), second.complete("hello"), second.complete("hello")] \
            == ["1. ok"] * 3
        assert reads == [f"{cache_key('m', 'hello')}.json"]
        assert replies == {cache_key("m", "hello"): ("1. ok", 12, 4)}
        assert (first.usage.input_tokens, second.usage.input_tokens) == (12, 24)

    def test_a_client_given_no_memo_reads_each_file_once(self, tmp_path, reads):
        path = write_cassette(tmp_path, "m", "hello", "first", 12, 4)
        client = ChatClient("m", cache_dir=tmp_path, offline=True)
        assert [client.complete("hello"), client.complete("hello")] == ["first"] * 2
        assert reads == [path.name]
        assert client.usage.input_tokens == 24
        # The memo is the client's own: a new client reads the edited file.
        write_cassette(tmp_path, "m", "hello", "second")
        assert client.complete("hello") == "first"
        assert ChatClient("m", cache_dir=tmp_path, offline=True).complete("hello") == "second"

    def test_recorded_reply_enters_the_memo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: FakeResponse(200, _ok_payload("fresh", 7, 2)))
        replies = {}
        client = ChatClient("m", endpoint="http://example/chat", cache_dir=tmp_path,
                            replies=replies)
        assert client.complete("new") == "fresh"
        assert replies == {cache_key("m", "new"): ("fresh", 7, 2)}

    def test_threads_sharing_a_memo_replay_every_reply_and_count_every_call(self, tmp_path):
        prompts = [f"p{i}" for i in range(40)]
        for i, prompt in enumerate(prompts):
            write_cassette(tmp_path, "m", prompt, f"r{i}", i, 1)
        replies, errors = {}, []
        clients = [ChatClient("m", cache_dir=tmp_path, offline=True, replies=replies)
                   for _ in range(4)]
        calls = [0] * len(clients)
        deadline = time.monotonic() + 1.0

        def run(worker):
            order = prompts[worker:] + prompts[:worker]
            try:
                while time.monotonic() < deadline:
                    for prompt in order:
                        if clients[worker].complete(prompt) != f"r{prompt[1:]}":
                            errors.append((worker, prompt))
                    calls[worker] += 1
            except Exception as e:  # recorded for the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(len(clients))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        per_pass = sum(range(len(prompts)))
        for client, passes in zip(clients, calls):
            assert passes > 0
            assert client.usage.input_tokens == passes * per_pass
            assert client.usage.output_tokens == passes * len(prompts)
        assert replies == {cache_key("m", p): (f"r{i}", i, 1) for i, p in enumerate(prompts)}

    def test_miss_and_corrupt_file_stay_out_of_the_memo(self, tmp_path):
        path = write_cassette(tmp_path, "m", "hello", "1. ok")
        path.write_text("{")
        replies = {}
        client = ChatClient("m", cache_dir=tmp_path, offline=True, replies=replies)
        with pytest.raises(LlmTransport, match=re.escape(str(path))):
            client.complete("hello")
        with pytest.raises(LlmTransport, match="offline mode"):
            client.complete("never recorded")
        assert replies == {}


class TestTokenUsageSerialization:
    def test_round_trip(self):
        usage = TokenUsage(680, 45, 0.0004075)
        assert TokenUsage.from_dict(usage.to_dict()) == usage
