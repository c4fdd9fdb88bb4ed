"""Echo, tabular, and remote adapters.  Remote tests use a fake session,
or the real transport against a local HTTP server on 127.0.0.1."""

from __future__ import annotations

import contextlib
import http.server
import json
import math
import random
import itertools
import socket
import threading
import tracemalloc
import urllib.error

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moltrip.adapters import (
    AuthMissing,
    EchoAdapter,
    HttpStatus,
    MalformedResponse,
    RemoteAdapter,
    RemoteClient,
    RemoteEndpointConfig,
    Sampled,
    StaleSnapshot,
    TabularPolicy,
    Timeout,
    TokenSequencePolicy,
    UnknownState,
    extract_smiles,
    load_prompts,
    tabular_gradient,
    tabular_grpo_step,
    tabular_sample,
    _uniform,
)
from moltrip.chem import canonical_smiles, parse_smiles
from moltrip.fingerprints import stable_hash
from moltrip.grpo import Completion, GrpoConfig, RolloutGroup, fill_advantages
from moltrip.toy import TOY_CAPTIONS, TOY_MAX_TOKENS, TOY_VOCAB

from oracles import (
    context_rows, eager_contexts, eager_walk, log_probs, tabular_objective,
)
from rows import set_logit


# ---------------------------------------------------------------------------
# echo adapter

def test_echo_adapter_round_trips_exactly():
    adapter = EchoAdapter()
    caption = adapter.caption("C1=CC=CC=C1", 1)[0].text
    assert caption == canonical_smiles(parse_smiles("c1ccccc1"))
    back = adapter.generate(caption, 1)[0].text
    assert canonical_smiles(parse_smiles(back)) == caption


# ---------------------------------------------------------------------------
# tabular policy basics

def test_tabular_policy_shapes_and_rows():
    policy = TabularPolicy.uniform(("s0", "s1"), ("a", "b", "c"))
    for state in policy.states:
        row = log_probs(policy, state)
        assert sum(math.exp(lp) for lp in row) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnknownState):
        policy.state_index("missing")
    with pytest.raises(ValueError):
        TabularPolicy(states=("s",), actions=("a", "b"), logits=[[0.0]])
    with pytest.raises(ValueError):  # a ragged table past its first row
        TabularPolicy(states=("s", "t"), actions=("a", "b"),
                      logits=[[0.0, 0.0], [0.0]])


@pytest.mark.parametrize("build", [
    lambda: TabularPolicy.uniform((), ("a",)),
    lambda: TabularPolicy.uniform(("s",), ()),
    lambda: TokenSequencePolicy(prompts=(), vocab=("a",), max_tokens=2),
    lambda: TokenSequencePolicy(prompts=("p",), vocab=(), max_tokens=2),
], ids=["no-state", "no-action", "no-prompt", "no-token-no-stop"])
def test_policies_refuse_no_state_or_no_action(build):
    # these once built, or failed on an index, and then every draw failed
    with pytest.raises(ValueError, match="at least one state and one action"):
        build()


def test_a_stop_alone_is_an_action():
    policy = TokenSequencePolicy(prompts=("p",), vocab=(), max_tokens=2, eos="$")
    assert policy.sample("p", 3, seed=0) == [Sampled("", (0.0,))] * 3
    assert policy.walk("p", "") == [(0, 0)]


def test_unknown_state_is_the_shared_key_error():
    # defined in errors, so the command line names it without loading adapters
    from moltrip import adapters, errors

    assert adapters.UnknownState is errors.UnknownState
    assert issubclass(errors.UnknownState, KeyError)


def test_snapshot_refresh_bumps_id_and_freezes():
    policy = TabularPolicy.uniform(("s",), ("a", "b"))
    assert policy.old_snapshot_id == 0
    set_logit(policy, 0, 0, 2.0)
    sid = policy.snapshot_old()
    assert sid == 1
    assert policy.old_logits[0][0] == 2.0
    set_logit(policy, 0, 0, 5.0)
    assert policy.old_logits[0][0] == 2.0  # frozen copy, not a view


def test_old_and_ref_tables_never_change_when_the_live_table_does():
    rows = [[0.0, 1.0], [2.0, 3.0]]
    policy = TabularPolicy(states=("s0", "s1"), actions=("a", "b"), logits=rows)
    rows[0][0] = 9.0  # the caller's lists are not the policy's rows
    assert policy.logits == [(0.0, 1.0), (2.0, 3.0)]
    with pytest.raises(TypeError):
        policy.logits[0][0] = 9.0
    for s in range(2):
        set_logit(policy, s, 0, 9.0)
    assert policy.old_logits == [(0.0, 1.0), (2.0, 3.0)]
    assert policy.ref_logits == [(0.0, 1.0), (2.0, 3.0)]
    policy.snapshot_old()
    for s in range(2):
        set_logit(policy, s, 1, -9.0)
    assert policy.old_logits == [(9.0, 1.0), (9.0, 3.0)]
    assert policy.ref_logits == [(0.0, 1.0), (2.0, 3.0)]


def test_sequence_snapshots_never_change_when_the_live_table_does():
    policy = TokenSequencePolicy(prompts=("p",), vocab=("a", "b"), max_tokens=2)
    flat = [(0.0, 0.0) for _ in policy.logits]
    with pytest.raises(TypeError):
        policy.logits[0][0] = 1.0
    for s in range(len(policy.logits)):
        set_logit(policy, s, 0, 1.0)
    assert policy.old_logits == flat and policy.ref_logits == flat
    policy.snapshot_old()
    for s in range(len(policy.logits)):
        set_logit(policy, s, 1, 2.0)
    assert policy.old_logits == [(1.0, 0.0) for _ in policy.logits]
    assert policy.ref_logits == flat


@pytest.mark.parametrize("kind", ["tabular", "sequence"])
def test_snapshots_share_rows_and_a_step_replaces_only_touched_rows(kind):
    if kind == "tabular":
        policy = TabularPolicy.uniform(("s0", "s1", "s2"), ("a", "b"))
        prompt, texts = "s1", ("b", "a")
    else:
        policy = TokenSequencePolicy(
            prompts=("p", "q"), vocab=("a", "b"), max_tokens=2,
        )
        prompt, texts = "q", ("ba", "ab")
    policy.snapshot_old()
    assert all(old is live for old, live in zip(policy.old_logits, policy.logits))
    assert all(ref is live for ref, live in zip(policy.ref_logits, policy.logits))
    with pytest.raises(TypeError):
        policy.logits[0][0] = 1.0

    before = list(policy.logits)
    touched = {s for text in texts for s, _ in policy.walk(prompt, text)}
    group = fill_advantages(RolloutGroup(
        prompt_id=prompt,
        completions=tuple(Completion(text=text, reward=r)
                          for text, r in zip(texts, (1.0, 0.0))),
        snapshot_id=policy.old_snapshot_id,
    ))
    policy.grpo_step([group], GrpoConfig(epsilon=0.2, beta=0.0), lr=0.5)
    for s, row in enumerate(policy.logits):
        if s in touched:
            assert row is not before[s] and row != before[s]
        else:
            assert row is before[s]
    assert policy.old_logits == before  # the snapshot did not move


# ---------------------------------------------------------------------------
# sampling

def test_sample_degenerate_softmax_picks_dominant_action():
    policy = TabularPolicy(
        states=("s",), actions=("a", "b", "c"),
        logits=[[30.0, 0.0, 0.0]],
    )
    draws = tabular_sample(policy, "s", 50, seed=1)
    assert all(d.text == "a" for d in draws)


def test_sample_uniform_frequencies_within_three_sigma():
    policy = TabularPolicy.uniform(("s",), ("a", "b", "c", "d"))
    n = 100_000
    draws = tabular_sample(policy, "s", n, seed=99)
    sigma = math.sqrt(0.25 * 0.75 / n)
    for action in policy.actions:
        freq = sum(1 for d in draws if d.text == action) / n
        assert abs(freq - 0.25) <= 3 * sigma


def test_sample_seed_determinism_and_prefix_stability():
    policy = TabularPolicy.uniform(("s",), ("a", "b", "c"))
    first = tabular_sample(policy, "s", 10, seed=7)
    second = tabular_sample(policy, "s", 10, seed=7)
    assert first == second
    prefix = tabular_sample(policy, "s", 5, seed=7)
    assert first[:5] == prefix
    assert tabular_sample(policy, "s", 10, seed=8) != first


def test_sample_attaches_exact_log_probs():
    policy = TabularPolicy(
        states=("s",), actions=("a", "b"), logits=[[1.0, 0.0]],
    )
    row = log_probs(policy, "s")
    for draw in tabular_sample(policy, "s", 20, seed=3):
        assert draw.logps == (row[policy.action_index(draw.text)],)


def test_sample_temperature_zero_is_argmax():
    policy = TabularPolicy(
        states=("s",), actions=("a", "b"), logits=[[0.0, 0.3]],
    )
    draws = tabular_sample(policy, "s", 5, seed=11, temperature=0.0)
    assert all(d.text == "b" for d in draws)


@pytest.mark.parametrize("temperature", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("kind", ["tabular", "sequence"])
def test_sample_refuses_a_temperature_neither_zero_nor_finite_positive(
    kind, temperature
):
    # a negative temperature inverts the odds (here "a", the least likely,
    # six draws in eight) and nan always drew the last action
    if kind == "tabular":
        policy = TabularPolicy(
            states=("s",), actions=("a", "b", "c"), logits=[(0.0, 1.0, 3.0)],
        )
        prompt = "s"
    else:
        policy, prompt = _sequence_policy(), "left"
    with pytest.raises(ValueError, match="temperature"):
        policy.sample(prompt, 8, seed=0, temperature=temperature)


def test_sample_unknown_state():
    policy = TabularPolicy.uniform(("s",), ("a",))
    with pytest.raises(UnknownState):
        tabular_sample(policy, "t", 1, seed=0)


# ---------------------------------------------------------------------------
# exact gradient

def _toy_policy_and_groups(beta: float = 0.05):
    rng = random.Random(812)
    states = ("s0", "s1", "s2")
    actions = ("a0", "a1", "a2", "a3")
    policy = TabularPolicy(
        states=states, actions=actions,
        logits=[[rng.uniform(-0.5, 0.5) for _ in actions] for _ in states],
    )
    policy.snapshot_old()
    for s, row in enumerate(policy.logits):  # move current off the old snapshot
        for a in range(len(row)):
            set_logit(policy, s, a, row[a] + rng.uniform(-0.15, 0.15))
    cfg = GrpoConfig(epsilon=0.2, beta=beta)
    groups = []
    for state in states:
        completions = tuple(
            Completion(text=rng.choice(actions), reward=rng.uniform(0, 4))
            for _ in range(6)
        )
        groups.append(fill_advantages(RolloutGroup(
            prompt_id=state, completions=completions,
            snapshot_id=policy.old_snapshot_id,
        )))
    return policy, groups, cfg


def test_gradient_matches_central_finite_differences():
    policy, groups, cfg = _toy_policy_and_groups()
    grad = tabular_gradient(policy, groups, cfg)
    h = 1e-5
    worst = 0.0
    for s in range(len(policy.states)):
        for a in range(len(policy.actions)):
            kept = policy.logits[s][a]
            set_logit(policy, s, a, kept + h)
            up = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept - h)
            down = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept)
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(numeric - grad[s][a]))
    assert worst < 1e-6


def test_gradient_pure_kl_contracts_toward_reference():
    policy, groups, cfg = _toy_policy_and_groups(beta=1.0)
    zeroed = [
        fill_advantages(RolloutGroup(
            prompt_id=g.prompt_id,
            completions=tuple(
                Completion(text=c.text, reward=1.0) for c in g.completions
            ),
            snapshot_id=g.snapshot_id,
        ))
        for g in groups
    ]
    before = tabular_objective(policy, zeroed, cfg)
    tabular_grpo_step(policy, zeroed, cfg, lr=0.05)
    after = tabular_objective(policy, zeroed, cfg)
    assert after >= before  # constant rewards: only the -beta*KL term moves


def test_step_increases_objective():
    policy, groups, cfg = _toy_policy_and_groups()
    before = tabular_objective(policy, groups, cfg)
    returned = tabular_grpo_step(policy, groups, cfg, lr=0.01)
    assert returned is policy
    assert tabular_objective(policy, groups, cfg) > before


def test_stale_snapshot_rejected():
    policy, groups, cfg = _toy_policy_and_groups()
    policy.snapshot_old()  # invalidates the id the groups carry
    with pytest.raises(StaleSnapshot):
        tabular_gradient(policy, groups, cfg)
    with pytest.raises(StaleSnapshot):
        tabular_objective(policy, groups, cfg)


def test_unfilled_advantages_rejected():
    policy, groups, cfg = _toy_policy_and_groups()
    bare = RolloutGroup(
        prompt_id="s0", completions=groups[0].completions,
        snapshot_id=policy.old_snapshot_id,
    )
    with pytest.raises(ValueError):
        tabular_gradient(policy, [bare], cfg)


# ---------------------------------------------------------------------------
# remote client (fake transport; no network anywhere)

class FakeResponse:
    def __init__(self, status_code=200, body=None, invalid_json=False):
        self.status_code = status_code
        self._body = body
        self._invalid = invalid_json

    def json(self):
        if self._invalid:
            raise ValueError("bad json")
        return self._body


class FakeSession:
    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({
            "url": url, "json": json, "headers": headers, "timeout": timeout,
        })
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def _ok_body(texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


CFG = RemoteEndpointConfig(
    base_url="https://api.example.test/v1", model="toy-model",
    timeout=5.0, max_retries=2,
)


def test_remote_requires_api_key(monkeypatch):
    monkeypatch.delenv("RTMOL_API_KEY", raising=False)
    client = RemoteClient(CFG, session=FakeSession([]))
    with pytest.raises(AuthMissing):
        client.complete("hi", 1)


def test_remote_success_payload_and_headers(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    session = FakeSession([FakeResponse(body=_ok_body(["CCO", "CCN"]))])
    client = RemoteClient(CFG, session=session, sleep=lambda s: None)
    out = client.complete("make ethanol", n=2, temperature=0.3)
    assert [s.text for s in out] == ["CCO", "CCN"]
    call = session.calls[0]
    assert call["url"] == "https://api.example.test/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer sekrit"
    assert call["json"]["model"] == "toy-model"
    assert call["json"]["n"] == 2
    assert call["json"]["temperature"] == 0.3
    assert call["timeout"] == 5.0


def test_remote_retries_with_backoff_then_succeeds(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([
        FakeResponse(status_code=429),
        FakeResponse(status_code=503),
        FakeResponse(body=_ok_body(["CC"])),
    ])
    naps = []
    out = RemoteClient(CFG, session=session, sleep=naps.append).complete("p", 1)
    assert out == [Sampled("CC")]
    assert naps == [0.5, 1.0]
    assert len(session.calls) == 3


def test_remote_exhausted_retries_raise_last_error(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([FakeResponse(status_code=500)] * 3)
    with pytest.raises(HttpStatus) as info:
        RemoteClient(CFG, session=session, sleep=lambda s: None).complete("p", 1)
    assert info.value.status == 500
    assert len(session.calls) == 3  # initial try + max_retries


def test_remote_non_retryable_status_is_immediate(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([FakeResponse(status_code=404)])
    with pytest.raises(HttpStatus) as info:
        RemoteClient(CFG, session=session, sleep=lambda s: None).complete("p", 1)
    assert info.value.status == 404
    assert len(session.calls) == 1


def test_remote_timeout_raised_after_retries(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([TimeoutError("slow")] * 3)
    with pytest.raises(Timeout):
        RemoteClient(CFG, session=session, sleep=lambda s: None).complete("p", 1)


def test_remote_connect_timeout_is_a_timeout(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([urllib.error.URLError(TimeoutError("slow"))] * 3)
    with pytest.raises(Timeout):
        RemoteClient(CFG, session=session, sleep=lambda s: None).complete("p", 1)
    assert len(session.calls) == 3


def test_remote_connection_error_retries(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([
        urllib.error.URLError(ConnectionRefusedError("refused")),
        FakeResponse(body=_ok_body(["O"])),
    ])
    out = RemoteClient(CFG, session=session, sleep=lambda s: None).complete("p", 1)
    assert out[0].text == "O"


def test_remote_malformed_responses(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    for response in [
        FakeResponse(body={"nothing": []}),
        FakeResponse(body=_ok_body(["only one"])),  # asked for two below
        FakeResponse(body={"choices": [{"wrong": 1}, {"wrong": 2}]}),
        FakeResponse(invalid_json=True),
        FakeResponse(body=["x"]),  # JSON, but not an object
        FakeResponse(body="x"),
        FakeResponse(body={"choices": [{"message": {"content": None}}] * 2}),
        FakeResponse(body={"choices": [{"message": {"content": 7}}] * 2}),
    ]:
        client = RemoteClient(CFG, session=FakeSession([response]),
                              sleep=lambda s: None)
        with pytest.raises(MalformedResponse):
            client.complete("p", 2)


def test_remote_client_sets_no_cap_on_calls_in_flight(monkeypatch):
    """The caller's threads alone decide how many calls are in flight."""
    monkeypatch.setenv("RTMOL_API_KEY", "k")

    class CountingSession:
        def __init__(self):
            self.lock = threading.Lock()
            self.live = 0
            self.peak = 0
            self.all_in = threading.Barrier(8, timeout=5.0)

        def post(self, url, json=None, headers=None, timeout=None):
            with self.lock:
                self.live += 1
                self.peak = max(self.peak, self.live)
            try:  # hold every call open until all eight are in flight
                self.all_in.wait()
            except threading.BrokenBarrierError:
                pass
            with self.lock:
                self.live -= 1
            return FakeResponse(body=_ok_body(["C"]))

    session = CountingSession()
    client = RemoteClient(CFG, session=session, sleep=lambda s: None)
    threads = [
        threading.Thread(target=client.complete, args=("p", 1))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert session.peak == 8


class ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with the next (status, body[, headers]) of the
    server's script; a None status stalls until the server's release event
    is set."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.seen.append((self.headers, json.loads(body) if body else None))
        status, reply, *extra = self.server.script.pop(0)
        if status is None:
            self.server.release.wait(5.0)
            return
        data = json.dumps(reply).encode()
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed 301/302/303 arrives as a GET

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serving():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script, server.seen, server.release = [], [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        assert not thread.is_alive()


@pytest.fixture
def local_server(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # keep any proxy off loopback
    with _serving() as server:
        yield server


def _local_client(port, **overrides):
    cfg = RemoteEndpointConfig(
        base_url=f"http://127.0.0.1:{port}/v1", model="toy-model",
        **{"timeout": 2.0, "max_retries": 2, **overrides},
    )
    return RemoteClient(cfg, sleep=lambda s: None)


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_transport_posts_no_body_that_is_not_json(
    temperature, monkeypatch, local_server,
):
    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    local_server.script = [(200, _ok_body(["CCO"]))]
    client = _local_client(local_server.server_port)
    with pytest.raises(ValueError, match="not JSON compliant"):
        client.complete("make ethanol", n=1, temperature=temperature)
    assert local_server.seen == []


def test_transport_retries_503_then_parses_200(monkeypatch, local_server):
    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    local_server.script = [(503, {}), (200, _ok_body(["CCO", "CCN"]))]
    client = _local_client(local_server.server_port)
    out = client.complete("make ethanol", n=2, temperature=0.3)
    assert [s.text for s in out] == ["CCO", "CCN"]
    assert len(local_server.seen) == 2
    headers, payload = local_server.seen[-1]
    assert headers["Authorization"] == "Bearer sekrit"
    assert headers["Content-Type"] == "application/json"
    assert payload == {
        "model": "toy-model",
        "messages": [{"role": "user", "content": "make ethanol"}],
        "n": 2,
        "temperature": 0.3,
    }


def test_transport_404_raises_at_once(monkeypatch, local_server):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    local_server.script = [(404, {"error": "no such model"})]
    with pytest.raises(HttpStatus) as info:
        _local_client(local_server.server_port).complete("p", 1)
    assert info.value.status == 404
    assert len(local_server.seen) == 1


def test_transport_stalled_server_times_out(monkeypatch, local_server):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    local_server.script = [(None, None)]
    client = _local_client(local_server.server_port, timeout=0.2, max_retries=0)
    with pytest.raises(Timeout):
        client.complete("p", 1)


def test_transport_refused_connection_is_status_zero(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with socket.socket() as probe:  # a port nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(HttpStatus) as info:
        _local_client(port).complete("p", 1)
    assert info.value.status == 0


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_transport_does_not_follow_redirects(monkeypatch, local_server, status):
    monkeypatch.setenv("RTMOL_API_KEY", "sekrit")
    with _serving() as elsewhere:
        elsewhere.script = [(200, _ok_body(["CCO"]))]
        target = f"http://127.0.0.1:{elsewhere.server_port}/v1/chat/completions"
        local_server.script = [(status, {}, {"Location": target})]
        with pytest.raises(HttpStatus) as info:
            _local_client(local_server.server_port).complete("p", 1)
        assert elsewhere.seen == []  # the bearer header never left for it
    assert info.value.status == status
    assert len(local_server.seen) == 1


def test_remote_config_validation():
    ok = "https://api.example.test/v1"
    for bad in (
        {"timeout": 0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"timeout": 1e300},
        {"timeout": threading.TIMEOUT_MAX * 2},
        {"max_retries": -1},
        {"base_url": "u"},
        {"base_url": "file:///tmp/v1"},
        {"base_url": "ftp://host/v1"},
        {"base_url": "http:///v1"},
        {"base_url": "http://host:abc/v1"},
        {"base_url": "http://host:99999/v1"},
    ):
        with pytest.raises(ValueError):
            RemoteEndpointConfig(**{"base_url": ok, "model": "m", **bad})
    RemoteEndpointConfig(base_url="http://127.0.0.1:8000/v1/", model="m")
    RemoteEndpointConfig(base_url=ok, model="m", timeout=threading.TIMEOUT_MAX)


# ---------------------------------------------------------------------------
# prompts and extraction

def test_load_prompts_defaults_and_override(tmp_path):
    defaults = load_prompts()
    assert "{smiles}" in defaults["caption_template"]
    custom = tmp_path / "prompts.cfg"
    custom.write_text(
        "# comment\ncaption_template = Say something about {smiles}\n"
    )
    merged = load_prompts(str(custom))
    assert merged["caption_template"] == "Say something about {smiles}"
    assert merged["generate_template"] == defaults["generate_template"]


def test_load_prompts_skips_a_leading_byte_order_mark(tmp_path):
    custom = tmp_path / "prompts.cfg"
    custom.write_text(
        "\ufeffcaption_template = Say something about {smiles}\n", encoding="utf-8"
    )
    assert load_prompts(str(custom))["caption_template"] == (
        "Say something about {smiles}"
    )


def test_load_prompts_refuses_unknown_keys(tmp_path):
    custom = tmp_path / "prompts.cfg"
    custom.write_text("generate_templat = Make {caption}\n")
    with pytest.raises(ValueError, match="generate_templat"):
        load_prompts(str(custom))


def test_load_prompts_refuses_a_line_without_equals(tmp_path):
    custom = tmp_path / "prompts.cfg"
    custom.write_text("\n# comment\ncaption_template: Describe {smiles} briefly.\n")
    with pytest.raises(ValueError, match=r"prompts\.cfg:3: not a key = value line"):
        load_prompts(str(custom))


@pytest.mark.parametrize("key, template", [
    ("generate_template", "Make {smiles}"),
    ("generate_template", "Make a molecule"),
    ("caption_template", "Describe {smiles} as {}"),
    ("caption_template", "Describe {smiles"),
    ("caption_template", "Describe {smiles:d}"),
    ("caption_template", "Describe {smiles.upper}"),
])
def test_remote_adapter_refuses_bad_templates_before_any_call(key, template):
    session = FakeSession([])
    client = RemoteClient(CFG, session=session, sleep=lambda s: None)
    with pytest.raises(ValueError, match=key):
        RemoteAdapter(client, {**load_prompts(), key: template})
    assert session.calls == []


def test_remote_adapter_refuses_missing_or_unknown_prompt_keys():
    client = RemoteClient(CFG, session=FakeSession([]), sleep=lambda s: None)
    for prompts in ({"caption_template": "{smiles}"}, {**load_prompts(), "x": "y"}):
        with pytest.raises(ValueError, match="prompt keys"):
            RemoteAdapter(client, prompts)


def test_remote_adapter_renders_templates(monkeypatch):
    monkeypatch.setenv("RTMOL_API_KEY", "k")
    session = FakeSession([
        FakeResponse(body=_ok_body(["a tiny alcohol"])),
        FakeResponse(body=_ok_body(["Sure thing! The SMILES is CCO"])),
    ])
    adapter = RemoteAdapter(RemoteClient(CFG, session=session,
                                         sleep=lambda s: None))
    caption = adapter.caption("CCO", 1)[0].text
    assert caption == "a tiny alcohol"
    assert "CCO" in session.calls[0]["json"]["messages"][0]["content"]
    molecule = adapter.generate("a tiny alcohol", 1)[0].text
    assert molecule == "CCO"
    assert "a tiny alcohol" in session.calls[1]["json"]["messages"][0]["content"]


def test_extract_smiles_longest_valid_token():
    assert extract_smiles("The molecule is CCO .") == "CCO"
    assert extract_smiles("CC CCO") == "CCO"
    assert extract_smiles("c1ccccc1") == "c1ccccc1"
    assert extract_smiles("nothing chemical here") is None


def test_extract_smiles_tie_goes_to_the_first_token():
    assert extract_smiles("Either CCO or OCC or CCN works") == "CCO"
    assert extract_smiles("Either OCC or CCO or OCC works") == "OCC"


def test_extract_smiles_full_text_fallback():
    assert extract_smiles("  CC(C)O  ") == "CC(C)O"


# ---------------------------------------------------------------------------
# token-level sequence policy

def _sequence_policy(eos=None, max_tokens=3):
    return TokenSequencePolicy(
        prompts=("left", "right"),
        vocab=("a", "b", "c"),
        max_tokens=max_tokens,
        eos=eos,
    )


def test_sequence_constructor_validation():
    with pytest.raises(ValueError):
        TokenSequencePolicy(prompts=("p",), vocab=("ab",), max_tokens=2)
    with pytest.raises(ValueError):
        TokenSequencePolicy(prompts=("p",), vocab=("a",), max_tokens=0)
    with pytest.raises(ValueError):
        TokenSequencePolicy(prompts=("p",), vocab=("a", "b"), max_tokens=2, eos="a")
    with pytest.raises(ValueError):
        TokenSequencePolicy(
            prompts=tuple(f"p{i}" for i in range(40)),
            vocab=tuple("abcdefghij"),
            max_tokens=5,
        )


def _walk_row(policy, prompt, prefix):
    """The row walk() names for the token after prefix: the step at
    position len(prefix) of a completion that starts with prefix."""
    fill = "".join(policy.vocab[:1]) * (policy.max_tokens - len(prefix))
    return policy.walk(prompt, prefix + fill)[len(prefix)][0]


def _assert_contexts_get_their_own_rows(prompts, vocab, max_tokens):
    """Repeated prompts or tokens would name one context twice, so the
    policy refuses them; otherwise walk() sends each (prompt, prefix)
    context to its own row, and those rows run over the whole table in the
    order eager_contexts enumerates the contexts."""
    if len(set(prompts)) < len(prompts) or len(set(vocab)) < len(vocab):
        with pytest.raises(ValueError, match="distinct"):
            TokenSequencePolicy(prompts=prompts, vocab=vocab, max_tokens=max_tokens)
        return
    policy = TokenSequencePolicy(prompts=prompts, vocab=vocab, max_tokens=max_tokens)
    contexts = eager_contexts(prompts, vocab, max_tokens)
    assert len(set(contexts)) == len(contexts)
    rows = [_walk_row(policy, prompt, prefix) for prompt, prefix in contexts]
    assert rows == list(range(len(policy.logits)))


@pytest.mark.parametrize("prompts, vocab", [
    # "\x1f" is an ordinary character: a prompt "a\x1f" and a token "\x1f"
    # once spelled one context string with the prompt "a"
    (("a", "a\x1f"), ("\x1f", "b")),
    (("a\x1fb",), ("b",)),
    (("a",), ("\x1f", "b")),
    (("a", "a"), ("b",)),
    (("a",), ("b", "b")),
])
def test_sequence_refuses_contexts_that_would_share_a_row(prompts, vocab):
    _assert_contexts_get_their_own_rows(prompts, vocab, max_tokens=2)


@settings(max_examples=60, deadline=None)
@given(prompts=st.lists(st.text("a\x1f", max_size=3), min_size=1, max_size=4),
       vocab=st.lists(st.sampled_from("b\x1f"), min_size=1, max_size=3),
       max_tokens=st.integers(1, 3))
@example(prompts=["a", "a\x1f"], vocab=["\x1f", "b"], max_tokens=2)
@example(prompts=["a\x1fb"], vocab=["b"], max_tokens=2)
@example(prompts=["a"], vocab=["\x1f", "b"], max_tokens=2)
def test_the_separator_character_is_an_ordinary_character(prompts, vocab, max_tokens):
    _assert_contexts_get_their_own_rows(tuple(prompts), tuple(vocab), max_tokens)


_PROMPT_TEXTS = st.lists(st.text("pq", max_size=2), min_size=1, max_size=3, unique=True)
_TOKENS = st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(prompts=_PROMPT_TEXTS, vocab=_TOKENS, max_tokens=st.integers(1, 3),
       eos=st.sampled_from([None, "$"]))
def test_sequence_contexts_agree_with_the_eager_enumeration(
    prompts, vocab, max_tokens, eos
):
    policy = TokenSequencePolicy(
        prompts=tuple(prompts), vocab=tuple(vocab), max_tokens=max_tokens, eos=eos,
    )
    contexts = eager_contexts(prompts, vocab, max_tokens)
    assert [_walk_row(policy, p, prefix) for p, prefix in contexts] == list(
        range(len(policy.logits))
    )
    assert [policy.state_index(p) for p in prompts] == [
        context_rows(policy)[p, ""] for p in prompts
    ]
    for prompt in prompts:
        for length in range(max_tokens + 2):
            for tokens in itertools.product(vocab, repeat=length):
                text = "".join(tokens)
                if length == max_tokens or (eos is not None and length < max_tokens):
                    assert policy.walk(prompt, text) == eager_walk(
                        contexts, policy.actions, eos, max_tokens, prompt, text,
                    )
                else:
                    with pytest.raises(UnknownState):
                        policy.walk(prompt, text)
    prompt, token = prompts[0], vocab[0]
    for state in ("r", prompt + "\x1f", prompt + token):  # prompts only
        with pytest.raises(UnknownState):
            policy.state_index(state)
    for bad_prompt, text in (("r", token * max_tokens), (prompt, "z" * max_tokens)):
        with pytest.raises(UnknownState):
            policy.walk(bad_prompt, text)
    with pytest.raises(UnknownState):
        policy.sample("r", 1, seed=0)


def test_building_the_toy_generator_retains_under_one_mib():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        generator = TokenSequencePolicy(
            prompts=TOY_CAPTIONS, vocab=TOY_VOCAB, max_tokens=TOY_MAX_TOKENS,
        )
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(generator.logits) == 17_568  # 12 prompts x (1 + 11 + 11 ** 2 + 11 ** 3)
    assert retained < 2 ** 20


def test_sequence_fixed_length_rollouts():
    policy = _sequence_policy()
    for sample in policy.sample("left", 20, seed=5):
        assert len(sample.text) == 3
        assert set(sample.text) <= {"a", "b", "c"}
        assert len(sample.logps) == 3


def test_sequence_eos_shortens_rollouts():
    policy = _sequence_policy(eos="$")
    seen_short = False
    for sample in policy.sample("left", 50, seed=5):
        assert len(sample.text) <= 3
        assert "$" not in sample.text
        if len(sample.text) < 3:
            seen_short = True
            assert len(sample.logps) == len(sample.text) + 1  # stop was drawn
        else:
            assert len(sample.logps) in (3, 4)
    assert seen_short  # at 1/4 stop odds per step, 50 draws must hit one


def test_sequence_sampling_deterministic_with_stable_prefix():
    policy = _sequence_policy()
    first = policy.sample("right", 8, seed=11)
    again = policy.sample("right", 8, seed=11)
    assert first == again
    head = policy.sample("right", 3, seed=11)
    assert head == first[:3]
    assert policy.sample("right", 8, seed=12) != first


def test_sequence_temperature_zero_walks_argmax_path():
    policy = _sequence_policy()
    # carve a deterministic greedy path: b, then c, then a
    rows = context_rows(policy)
    for prefix, tok in (("", "b"), ("b", "c"), ("bc", "a")):
        set_logit(policy, rows["left", prefix], policy.action_index(tok), 5.0)
    out = policy.sample("left", 4, seed=0, temperature=0.0)
    assert [s.text for s in out] == ["bca"] * 4


def test_sequence_logps_follow_requested_table():
    policy = _sequence_policy()
    state = policy.state_index("left")
    set_logit(policy, state, 0, policy.logits[state][0] + 1.0)
    # "a" leads with odds e/(e+2), so 64 draws all miss it with odds under
    # 1e-23 whatever the stream
    cur = policy.sample("left", 64, seed=3, table="cur")
    old = policy.sample("left", 64, seed=3, table="old")
    flat = math.log(1 / 3)
    assert all(lp == pytest.approx(flat) for s in old for lp in (s.logps[0],))
    assert any(s.logps[0] != pytest.approx(flat) for s in cur
               if s.text[0] == "a")


def _sequence_groups(policy, rng, cfg):
    groups = []
    for prompt in policy.prompts:
        draws = policy.sample(prompt, 6, seed=rng.randrange(10_000))
        completions = tuple(
            Completion(text=d.text, reward=d.text.count("a") + rng.random())
            for d in draws
        )
        groups.append(fill_advantages(RolloutGroup(
            prompt_id=prompt, completions=completions,
            snapshot_id=policy.old_snapshot_id,
        )))
    return groups


def test_sequence_gradient_matches_central_finite_differences():
    rng = random.Random(271)
    policy = _sequence_policy(max_tokens=2)
    policy.snapshot_old()
    for s, row in enumerate(policy.logits):  # move current off the old snapshot
        for a in range(len(row)):
            set_logit(policy, s, a, row[a] + rng.uniform(-0.15, 0.15))
    cfg = GrpoConfig(epsilon=0.2, beta=0.05)
    groups = _sequence_groups(policy, rng, cfg)
    grad = policy.gradient(groups, cfg)
    h = 1e-5
    worst = 0.0
    for s in range(len(policy.logits)):
        dense = grad.get(s, [0.0] * len(policy.actions))
        for a in range(len(policy.actions)):
            kept = policy.logits[s][a]
            set_logit(policy, s, a, kept + h)
            up = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept - h)
            down = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept)
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(numeric - dense[a]))
    assert worst < 1e-6


def test_sequence_tabular_gradient_is_the_dense_gradient():
    rng = random.Random(31)
    policy = _scrambled(_sequence_policy(eos="$", max_tokens=2), rng)
    cfg = GrpoConfig(epsilon=0.2, beta=0.05)
    groups = _sequence_groups(policy, rng, cfg)
    sparse = policy.gradient(groups, cfg)
    width = len(policy.actions)
    assert sparse and len(sparse) < len(policy.logits)
    assert tabular_gradient(policy, groups, cfg) == [
        sparse.get(s, [0.0] * width) for s in range(len(policy.logits))
    ]


def test_sequence_tabular_objective_slope_matches_the_gradient_with_eos():
    # walks of unequal length, so the 1/|walk| normalizer varies
    rng = random.Random(43)
    policy = _scrambled(_sequence_policy(eos="$", max_tokens=2), rng)
    cfg = GrpoConfig(epsilon=0.2, beta=0.05)
    groups = _sequence_groups(policy, rng, cfg)
    walks = [policy.walk(g.prompt_id, c.text) for g in groups for c in g.completions]
    assert len({len(w) for w in walks}) > 1
    dense = tabular_gradient(policy, groups, cfg)
    h = 1e-5
    for s in {s for w in walks for s, _ in w}:
        for a in range(len(policy.actions)):
            kept = policy.logits[s][a]
            set_logit(policy, s, a, kept + h)
            up = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept - h)
            down = tabular_objective(policy, groups, cfg)
            set_logit(policy, s, a, kept)
            assert (up - down) / (2 * h) == pytest.approx(dense[s][a], abs=1e-6)


def test_sequence_step_raises_drawn_token_probability():
    policy = _sequence_policy(max_tokens=2)
    policy.snapshot_old()
    completions = (
        Completion(text="ab", reward=4.0),
        Completion(text="ca", reward=0.0),
        Completion(text="cb", reward=0.0),
    )
    group = fill_advantages(RolloutGroup(
        prompt_id="left", completions=completions,
        snapshot_id=policy.old_snapshot_id,
    ))
    before_root = log_probs(policy, ("left", ""))[policy.action_index("a")]
    before_next = log_probs(policy, ("left", "a"))[policy.action_index("b")]
    policy.grpo_step([group], GrpoConfig(beta=0.0), lr=0.5)
    assert log_probs(policy, ("left", ""))[policy.action_index("a")] > before_root
    assert log_probs(policy, ("left", "a"))[policy.action_index("b")] > before_next


def test_sequence_rejects_foreign_completions():
    policy = _sequence_policy(max_tokens=2)
    policy.snapshot_old()
    cfg = GrpoConfig()

    def group_for(text):
        completions = (
            Completion(text=text, reward=1.0),
            Completion(text="ab", reward=0.0),
        )
        return fill_advantages(RolloutGroup(
            prompt_id="left", completions=completions,
            snapshot_id=policy.old_snapshot_id,
        ))

    for bad in ("xz", "abc", "a"):
        with pytest.raises(UnknownState):
            tabular_objective(policy, [group_for(bad)], cfg)
    with_eos = _sequence_policy(eos="$", max_tokens=2)
    with_eos.snapshot_old()
    short = fill_advantages(RolloutGroup(
        prompt_id="left",
        completions=(Completion(text="a", reward=1.0),
                     Completion(text="ab", reward=0.0)),
        snapshot_id=with_eos.old_snapshot_id,
    ))
    assert math.isfinite(tabular_objective(with_eos, [short], cfg))


def test_sequence_snapshot_discipline():
    policy = _sequence_policy(max_tokens=2)
    first = policy.old_snapshot_id
    assert policy.snapshot_old() == first + 1
    stale = fill_advantages(RolloutGroup(
        prompt_id="left",
        completions=(Completion(text="ab", reward=1.0),
                     Completion(text="ba", reward=0.0)),
        snapshot_id=first,
    ))
    with pytest.raises(StaleSnapshot):
        tabular_objective(policy, [stale], GrpoConfig())


# ---------------------------------------------------------------------------
# the draw stream, pinned against a longhand reference

def _reference_log_softmax(row):
    peak = max(row)
    log_norm = peak + math.log(sum(math.exp(v - peak) for v in row))
    return [v - log_norm for v in row]


def _reference_uniform(key, t):
    """Counter t of the splitmix64 stream keyed by key, written out longhand."""
    z = (key + (t + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    z = z ^ (z >> 31)
    return (z >> 11) / 2 ** 53


def _reference_pick(log_probs, temperature, key, t=0):
    """Index drawn from a log-prob row by counter t of the stream keyed by key."""
    if temperature == 0.0:
        return max(range(len(log_probs)), key=lambda j: (log_probs[j], -j))
    scaled = log_probs if temperature == 1.0 else _reference_log_softmax(
        [lp / temperature for lp in log_probs]
    )
    cumulative, acc = [], 0.0
    for lp in scaled:
        acc += math.exp(lp)
        cumulative.append(acc)
    u = _reference_uniform(key, t)
    for j, edge in enumerate(cumulative):
        if u < edge:
            return j
    return len(cumulative) - 1


def _reference_sequence_sample(policy, prompt, n, seed, temperature, table):
    out = []
    for i in range(n):
        key = stable_hash("draw", seed, prompt, i)
        prefix, logps = "", []
        for t in range(policy.max_tokens):
            row = policy.log_probs((prompt, prefix), table)
            chosen = _reference_pick(row, temperature, key, t)
            logps.append(row[chosen])
            token = policy.actions[chosen]
            if token == policy.eos:
                break
            prefix += token
        out.append(Sampled(prefix, tuple(logps)))
    return out


def _scrambled(policy, rng):
    """Random live and old tables that differ from each other."""
    for s, row in enumerate(policy.logits):
        for a in range(len(row)):
            set_logit(policy, s, a, rng.uniform(-2.0, 2.0))
    policy.snapshot_old()
    for s, row in enumerate(policy.logits):
        for a in range(len(row)):
            set_logit(policy, s, a, row[a] + rng.uniform(-1.0, 1.0))
    return policy


@pytest.mark.parametrize("eos", [None, "$"])
@pytest.mark.parametrize("temperature", [1.0, 0.7, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("table", ["cur", "old"])
def test_sequence_draws_match_reference_stream(eos, temperature, table):
    policy = _scrambled(_sequence_policy(eos=eos), random.Random(17))
    for prompt, seed in (("left", 0), ("right", 123456789)):
        got = policy.sample(prompt, 40, seed, temperature=temperature, table=table)
        want = _reference_sequence_sample(
            _Memo(policy), prompt, 40, seed, temperature, table
        )
        assert got == want


@pytest.mark.parametrize("temperature", [1.0, 0.7, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("table", ["cur", "old"])
def test_tabular_draws_match_reference_stream(temperature, table):
    rng = random.Random(5)
    policy = TabularPolicy(
        states=("s0", "s1"), actions=("a", "b", "c", "d"),
        logits=[[rng.uniform(-2, 2) for _ in range(4)] for _ in range(2)],
    )
    policy.snapshot_old()
    set_logit(policy, 0, 2, policy.logits[0][2] + 1.5)
    for state, seed in (("s0", 3), ("s1", 98765)):
        row = log_probs(policy, state, table)
        want = []
        for i in range(60):
            chosen = _reference_pick(
                row, temperature, stable_hash("draw", seed, state, i)
            )
            want.append(Sampled(policy.actions[chosen], (row[chosen],)))
        got = tabular_sample(
            policy, state, 60, seed, temperature=temperature, table=table
        )
        assert got == want


@pytest.mark.parametrize("temperature", [1.0, 0.7, 0.0])
@pytest.mark.parametrize("table", ["cur", "old"])
def test_one_token_sequence_policy_draws_and_walks_as_the_tabular_policy(
    temperature, table
):
    """A one-token policy without a stop is the tabular policy over the same
    rows: state p is context (p, "")."""
    sequence = _scrambled(_sequence_policy(max_tokens=1), random.Random(23))
    tabular = TabularPolicy(
        states=sequence.prompts, actions=sequence.actions,
        logits=sequence.old_logits,
    )
    tabular.snapshot_old()
    for s, row in enumerate(sequence.logits):
        for a, value in enumerate(row):
            set_logit(tabular, s, a, value)
    for prompt in sequence.prompts:
        assert log_probs(tabular, prompt, table) == log_probs(
            sequence, (prompt, ""), table
        )
        for seed in (0, 4242):
            got = sequence.sample(prompt, 30, seed, temperature=temperature, table=table)
            want = tabular.sample(prompt, 30, seed, temperature=temperature, table=table)
            assert got == want
            for draw in want:
                assert sequence.walk(prompt, draw.text) == tabular.walk(prompt, draw.text)


def test_stream_uniforms_are_uniform_over_consecutive_counters():
    n = 100_000
    key = stable_hash("draw", 0, "s", 0)
    draws = [_uniform(key, t) for t in range(n)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert draws[:50] == [_reference_uniform(key, t) for t in range(50)]
    mean = sum(draws) / n
    variance = sum((u - mean) ** 2 for u in draws) / n
    # for U uniform on [0, 1): Var U = 1/12 and Var (U - 1/2)^2 = 1/180
    assert abs(mean - 0.5) <= 4 * math.sqrt(1 / 12 / n)
    assert abs(variance - 1 / 12) <= 4 * math.sqrt(1 / 180 / n)


def _longhand_gradient(policy, groups, cfg):
    """Dense gradient summed token by token, one softmax row pass per step."""
    eps = cfg.epsilon
    width = len(policy.actions)
    grad = [[0.0] * width for _ in policy.logits]
    for group in groups:
        for completion, advantage in zip(group.completions, group.advantages):
            steps = policy.walk(group.prompt_id, completion.text)
            for s, a in steps:
                cur = _reference_log_softmax(policy.logits[s])
                old = _reference_log_softmax(policy.old_logits[s])
                ref = _reference_log_softmax(policy.ref_logits[s])
                ratio = math.exp(cur[a] - old[a])
                clamped = min(max(ratio, 1.0 - eps), 1.0 + eps)
                if ratio * advantage <= clamped * advantage or 1.0 - eps < ratio < 1.0 + eps:
                    slope = advantage
                else:
                    slope = 0.0
                coeff = (
                    slope * ratio + cfg.beta * (math.exp(ref[a] - cur[a]) - 1.0)
                ) / len(steps)
                for j in range(width):
                    grad[s][j] += coeff * ((1.0 if j == a else 0.0) - math.exp(cur[j]))
    return grad


def test_aggregated_gradient_equals_the_longhand_per_token_gradient():
    rng = random.Random(59)
    policy = _scrambled(_sequence_policy(eos="$", max_tokens=3), rng)
    cfg = GrpoConfig(epsilon=0.2, beta=0.05)
    groups = []
    for prompt in policy.prompts:
        texts = [d.text for d in policy.sample(prompt, 8, seed=rng.randrange(10_000))]
        texts += texts[:4]  # repeated completions, same reward and advantage
        rewards = {text: rng.uniform(0.0, 4.0) for text in texts}
        groups.append(fill_advantages(RolloutGroup(
            prompt_id=prompt,
            completions=tuple(Completion(text=t, reward=rewards[t]) for t in texts),
            snapshot_id=policy.old_snapshot_id,
        )))
    walks = [policy.walk(g.prompt_id, c.text) for g in groups for c in g.completions]
    assert len({len(w) for w in walks}) > 1
    assert any(len(set(c.text for c in g.completions)) < len(g.completions)
               for g in groups)
    got = tabular_gradient(policy, groups, cfg)
    want = _longhand_gradient(policy, groups, cfg)
    assert any(any(row) for row in want)
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            assert abs(g - w) <= 1e-12


# ---------------------------------------------------------------------------
# the memo of row distributions

@pytest.mark.parametrize("table, field", [
    ("cur", "logits"), ("old", "old_logits"), ("ref", "ref_logits"),
])
def test_every_table_keeps_tuple_copies_of_the_given_rows(table, field):
    rows = [[1.0, 0.0], [0.5, 2.0]]
    policy = TabularPolicy(states=("s0", "s1"), actions=("a", "b"), logits=rows)
    before = log_probs(policy, "s0", table)
    assert before == _reference_log_softmax([1.0, 0.0])
    rows[0][0] = 5.0  # the caller's lists are not the policy's rows
    with pytest.raises(TypeError):
        getattr(policy, field)[0][0] = 5.0
    assert getattr(policy, field) == [(1.0, 0.0), (0.5, 2.0)]
    assert log_probs(policy, "s0", table) == before


class _Longhand:
    """A policy's tables read row by row through the longhand softmax,
    never through the policy's memo."""

    def __init__(self, policy):
        self.policy = policy
        self.rows = context_rows(policy)
        self.actions = policy.actions
        self.eos = getattr(policy, "eos", None)
        self.max_tokens = getattr(policy, "max_tokens", None)

    def log_probs(self, state, table):
        p = self.policy
        rows = {"cur": p.logits, "old": p.old_logits, "ref": p.ref_logits}[table]
        return _reference_log_softmax(rows[self.rows[state]])


class _Memo(_Longhand):
    """A policy's tables read through the policy's memo."""

    def log_probs(self, state, table):
        return log_probs(self.policy, state, table)


def _reference_tabular_sample(policy, state, n, seed, temperature, table):
    row = policy.log_probs(state, table)
    out = []
    for i in range(n):
        chosen = _reference_pick(row, temperature, stable_hash("draw", seed, state, i))
        out.append(Sampled(policy.actions[chosen], (row[chosen],)))
    return out


def _memo_policy(kind):
    if kind == "tabular":
        policy = TabularPolicy.uniform(("s0", "s1", "s2"), ("a", "b", "c", "d"))
        return _scrambled(policy, random.Random(7)), policy.states
    policy = _scrambled(_sequence_policy(eos="$", max_tokens=2), random.Random(7))
    return policy, policy.prompts


def _held_rows(policy) -> dict[int, tuple]:
    return {
        id(row): row
        for rows in (policy.logits, policy.old_logits, policy.ref_logits)
        for row in rows
    }


_TABLES = st.sampled_from(["cur", "old", "ref"])
_MEMO_OPS = st.lists(st.one_of(
    st.tuples(st.just("sample"), _TABLES, st.sampled_from([0.0, 0.7, 1.0]),
              st.integers(0, 2 ** 32), st.integers(0, 2)),
    st.tuples(st.just("log_probs"), _TABLES, st.integers(0, 10 ** 6)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("step"), st.integers(0, 2 ** 32)),
    st.tuples(st.just("set_logit"), st.integers(0, 10 ** 6), st.integers(0, 4),
              st.floats(-3.0, 3.0)),
), min_size=1, max_size=12)


@pytest.mark.parametrize("kind", ["tabular", "sequence"])
@settings(max_examples=40, deadline=None)
@given(ops=_MEMO_OPS)
@example(ops=[("sample", "cur", 1.0, 0, 0), ("step", 0), ("sample", "cur", 1.0, 0, 0)])
def test_memoised_rows_never_go_stale(kind, ops):
    """Every draw, log-prob and gradient equals its longhand value on the
    tables as they stand, and the memo holds only rows the tables held
    since the last update."""
    policy, prompts = _memo_policy(kind)
    longhand = _Longhand(policy)
    reference = (_reference_tabular_sample if kind == "tabular"
                 else _reference_sequence_sample)
    cfg = GrpoConfig(epsilon=0.2, beta=0.05)
    seen = _held_rows(policy)
    for op in ops:
        seen.update(_held_rows(policy))
        if op[0] == "sample":
            _, table, temperature, seed, k = op
            prompt = prompts[k % len(prompts)]
            got = policy.sample(prompt, 6, seed, temperature=temperature, table=table)
            assert got == reference(longhand, prompt, 6, seed, temperature, table)
        elif op[0] == "log_probs":
            _, table, k = op
            contexts = list(longhand.rows)
            state = contexts[k % len(contexts)]
            assert log_probs(policy, state, table) == longhand.log_probs(state, table)
        elif op[0] == "snapshot":
            policy.snapshot_old()
        elif op[0] == "step":
            rng = random.Random(op[1])
            groups = []
            for prompt in prompts:
                draws = policy.sample(prompt, 6, rng.randrange(10_000), table="old")
                groups.append(fill_advantages(RolloutGroup(
                    prompt_id=prompt,
                    completions=tuple(Completion(text=d.text, reward=rng.random())
                                      for d in draws),
                    snapshot_id=policy.old_snapshot_id,
                )))
            want = _longhand_gradient(policy, groups, cfg)
            for got_row, want_row in zip(tabular_gradient(policy, groups, cfg), want):
                assert all(abs(g - w) <= 1e-12 for g, w in zip(got_row, want_row))
            policy.grpo_step(groups, cfg, lr=0.5)
            seen = {}
        else:
            _, s, a, value = op
            set_logit(policy, s % len(policy.logits), a % len(policy.actions), value)
        seen.update(_held_rows(policy))
        assert all(seen.get(key) is entry[0] for key, entry in policy._dists.items())
