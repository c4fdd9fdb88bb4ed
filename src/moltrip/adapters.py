"""Captioner/generator adapters: an echo mock, tabular policies, remote LLM.

The mock and the remote backend share two duck-typed methods: caption() maps a
molecule string to sampled caption texts, and generate() maps a caption to
sampled molecule strings.  Training has one policy type, the tabular
softmax TabularPolicy: sample() draws completions with exact
log-probabilities through one rollout loop, walk() reduces a completion to
its (state row, token) steps, and grpo_step() ascends the exact GRPO
objective.  A tabular completion is one token, the whole string, drawn in
the prompt's own state.  The token policy, TokenSequencePolicy, is a
TabularPolicy with one row per (prompt, prefix) context.  Two hooks name
the row each token is drawn in: state_index(prompt) for the first, the
prompt's own index in the token policy, and _child(row, t, action) for the
next; the token policy overrides only _child and the hook that splits a
completion into tokens.  Its rows are ordered by prefix length, then
prompt, then the prefix read as a base-|vocab| number, so a row is found
by counting and no context is spelled or looked up.  So one draw rule, one
objective and one gradient serve both; that exactness is what makes the
desk-scale training loop verifiable.

Draws come from a counter-based stream: each uniform is the splitmix64
finaliser of a 64-bit key plus (counter + 1) times the golden-ratio
increment, so a draw is a fixed function of (key, counter) and nothing is
seeded.  Rollout i is keyed once by stable_hash("draw", seed, prompt, i)
and its token t reads counter t; a tabular draw reads counter 0 only.

A policy memoises each logit row's distribution: its log-probabilities,
from one log-normaliser, and the running sums of its probabilities, which
a temperature-1 draw bisects.  Entries are keyed by the row object and hold
it, and rows are immutable tuples, so an entry can neither go stale nor
alias a freed row.  Snapshots only share rows, so the memo survives them;
every update makes new rows and empties the memo.  So between two updates
each distinct row is normalised once, however many draws, log-prob reads
and gradient steps pass it, and the memo never holds more entries than
there were distinct row objects in the three tables.

The remote backend posts each chat-completions call through UrllibTransport,
a standard-library HTTP transport (urllib.request and json), so the package
has no third-party runtime dependency.  The HTTP stack (urllib.request,
http.client, and the ssl and email modules they pull in) is imported inside
the transport and client methods, so it loads with the first remote call;
importing this module, or running a command that calls no endpoint, never
loads it.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json as jsonlib
import math
import os
import threading
import time
from typing import NamedTuple

from .chem import canonicalize, check_validity
from .errors import UnknownState
from .fingerprints import extend_hash, stable_hash
from .grpo import GrpoConfig, RolloutGroup
from .records import checked

API_KEY_VAR = "RTMOL_API_KEY"
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class AdapterFailure(RuntimeError):
    """A policy backend failed while serving a sampling request."""


class StaleSnapshot(ValueError):
    """Rollout groups reference an old-policy snapshot no longer held."""


class AuthMissing(RuntimeError):
    """The API key environment variable is not set."""


class Timeout(RuntimeError):
    """The remote endpoint did not answer within the configured timeout."""


class HttpStatus(RuntimeError):
    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"HTTP {status} {detail}".rstrip())
        self.status = status


class MalformedResponse(RuntimeError):
    """The remote endpoint answered with an unusable payload."""


class Sampled(NamedTuple):
    """One sampled text with optional exact per-token log-probabilities."""

    text: str
    logps: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# echo mock

class EchoAdapter:
    """Captions with the canonical SMILES itself; generates by echoing.

    The degenerate but perfectly aligned system: every round trip is exact
    by construction, which pins the top line of the evaluation report.
    """

    def caption(self, molecule, n, temperature=1.0):
        text = canonicalize(molecule)
        return [Sampled(text)] * n

    def generate(self, caption, n, temperature=1.0):
        return [Sampled(caption.strip())] * n


# ---------------------------------------------------------------------------
# tabular softmax policies

def _log_norm(row: list[float]) -> float:
    """log sum exp of the row, shifted by its peak."""
    peak = max(row)
    return peak + math.log(sum(math.exp(v - peak) for v in row))


def _log_softmax(row: list[float]) -> list[float]:
    log_norm = _log_norm(row)
    return [v - log_norm for v in row]


def _argmax(row: list[float]) -> int:
    """Index of the largest entry; ties go to the lowest index."""
    return max(range(len(row)), key=lambda j: (row[j], -j))


def _cumulative(log_probs: list[float], temperature: float) -> list[float] | None:
    """Running sums of the tempered probabilities, for bisecting a uniform
    draw; None at temperature 0, where the draw is the argmax."""
    if temperature == 0.0:
        return None
    if temperature != 1.0:
        log_probs = _log_softmax([lp / temperature for lp in log_probs])
    return list(itertools.accumulate(math.exp(lp) for lp in log_probs))


# A row's memoised distribution: (row, log-probs, running sums of the
# probabilities).  The row itself is held so its id stays taken.
RowDist = tuple[tuple[float, ...], list[float], list[float]]


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _uniform(key: int, t: int) -> float:
    """Uniform in [0, 1) at counter t of the stream keyed by key: the
    splitmix64 finaliser of key + (t + 1) * gamma, top 53 bits."""
    z = (key + (t + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ z >> 31) >> 11) * 2.0 ** -53


def _draw(
    log_probs: list[float], cumulative: list[float] | None, key: int, t: int = 0
) -> int:
    """The action index one draw picks: the argmax when cumulative is None,
    else the bisected position of the uniform at counter t of stream key."""
    if cumulative is None:
        return _argmax(log_probs)
    u = _uniform(key, t)
    return min(bisect.bisect_right(cumulative, u), len(cumulative) - 1)


class TabularPolicy:
    """Softmax-over-logits policy on finite states and actions.

    Keeps three logit tables, all three first the given rows: the live one,
    a frozen "old" snapshot that sampling ratios are measured against, and a
    fixed reference for the KL penalty.  Snapshot ids let rollouts prove which table produced them.
    Each row of every table is an immutable tuple, so the three tables
    share the rows they agree on: a snapshot copies only the list of rows,
    and an update replaces the rows it touches.  Each row's distribution is
    memoised until the next update (see the module docstring).
    """

    # one token, the whole string, and no stop
    max_tokens = 1
    eos = None

    def __init__(
        self,
        states: tuple[str, ...],
        actions: tuple[str, ...],
        logits: list[tuple[float, ...]],
    ) -> None:
        if len(logits) != len(states) or any(len(r) != len(actions) for r in logits):
            raise ValueError("logits shape must be states x actions")
        self.states = states
        self._state_index = {s: i for i, s in enumerate(states)}
        self._init_tables(actions, logits)

    def _init_tables(self, actions: tuple[str, ...], logits) -> None:
        """Name the actions and start all three tables as the given rows."""
        if not logits or not actions:
            raise ValueError("a policy needs at least one state and one action")
        self.actions = actions
        self.logits = [tuple(row) for row in logits]
        self.old_logits = list(self.logits)
        self.ref_logits = list(self.logits)
        self.old_snapshot_id = 0
        self._action_index = {a: i for i, a in enumerate(actions)}
        self._dists: dict[int, RowDist] = {}

    @classmethod
    def uniform(cls, states, actions) -> "TabularPolicy":
        rows = [(0.0,) * len(actions)] * len(states)
        return cls(states=tuple(states), actions=tuple(actions), logits=rows)

    def state_index(self, prompt: str) -> int:
        """The row the first token of a completion of prompt is drawn in."""
        if prompt not in self._state_index:
            raise UnknownState(prompt)
        return self._state_index[prompt]

    def action_index(self, action: str) -> int:
        if action not in self._action_index:
            raise UnknownState(action)
        return self._action_index[action]

    def _table(self, table: str) -> list[tuple[float, ...]]:
        return {
            "cur": self.logits, "old": self.old_logits, "ref": self.ref_logits,
        }[table]

    def _dist(self, row: tuple[float, ...]) -> RowDist:
        """The row's memoised distribution, computed on first use."""
        entry = self._dists.get(id(row))
        if entry is None:
            log_probs = _log_softmax(row)
            entry = self._dists[id(row)] = (
                row, log_probs, _cumulative(log_probs, 1.0),
            )
        return entry

    def _draw_row(
        self, row: tuple[float, ...], temperature: float
    ) -> tuple[list[float], list[float] | None]:
        """A row's log-probs and the running sums a draw at temperature
        bisects (None at temperature 0); the memo serves temperature 1."""
        _, log_probs, cumulative = self._dist(row)
        if temperature != 1.0:
            cumulative = _cumulative(log_probs, temperature)
        return log_probs, cumulative

    def snapshot_old(self) -> int:
        """Freeze the live table as the new old policy; returns its id."""
        self.old_logits = list(self.logits)
        self.old_snapshot_id += 1
        return self.old_snapshot_id

    def _child(self, row: int, t: int, action: int) -> int:
        """The row token t + 1 is drawn in when token t was action, drawn in
        row; a one-token policy never draws a second token."""
        raise NotImplementedError("a tabular completion is one token")

    def _tokens(self, text: str) -> list[str]:
        """The tokens a completion took, the stop included."""
        return [text]

    def walk(self, prompt: str, text: str) -> Walk:
        """The (state row, token) steps a completion took."""
        tokens = self._tokens(text)
        row = self.state_index(prompt)
        steps = []
        for t, token in enumerate(tokens):
            if t:
                row = self._child(row, t - 1, action)
            action = self.action_index(token)
            steps.append((row, action))
        return steps

    def _rollouts(self, prompt: str, n: int, seed: int, temperature: float,
                  table: str) -> list[Sampled]:
        """n independent rollouts; draw (i, t) depends only on (seed, prompt, i, t).

        Rollout i is keyed once by stable_hash("draw", seed, prompt, i),
        continued from the hash of the shared head, and its token t bisects
        the uniform at counter t of that stream, so extending n preserves
        the prefix and no token hashes.  The key is a process-independent
        FNV hash: python's tuple hash is salted.  Each token's row comes
        from the state_index and _child hooks.  The tables cannot change
        during a call, so each row's draw terms are found once and shared by
        all n rollouts; its distribution comes from the policy's memo, and is
        tempered once per call when the temperature is not 1.
        Temperature 0 draws the argmax; any other temperature must be finite
        and positive, checked before any draw.  Attached log-probabilities
        are always the exact temperature-1 values from the requested table.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if not (temperature == 0.0 or 0.0 < temperature < math.inf):
            raise ValueError(
                f"temperature must be 0 or finite and positive, got {temperature!r}"
            )
        base = stable_hash("draw", seed, prompt)
        rows = self._table(table)
        root = self.state_index(prompt)
        child, actions, eos = self._child, self.actions, self.eos
        last = self.max_tokens - 1
        memo: dict[int, tuple[list[float], list[float] | None]] = {}
        out = []
        for i in range(n):
            key = extend_hash(base, i)
            row = root
            text = ""
            logps = []
            for t in range(self.max_tokens):
                entry = memo.get(row)
                if entry is None:
                    entry = memo[row] = self._draw_row(rows[row], temperature)
                log_probs, cumulative = entry
                chosen = _draw(log_probs, cumulative, key, t)
                logps.append(log_probs[chosen])
                token = actions[chosen]
                if token == eos:
                    break
                text += token
                if t < last:
                    row = child(row, t, chosen)
            out.append(Sampled(text, tuple(logps)))
        return out

    def sample(self, prompt: str, n: int, seed: int, temperature: float = 1.0,
               table: str = "cur") -> list[Sampled]:
        return tabular_sample(self, prompt, n, seed, temperature, table)

    def grpo_step(
        self, groups: list[RolloutGroup], cfg: GrpoConfig, lr: float
    ) -> "TabularPolicy":
        return tabular_grpo_step(self, groups, cfg, lr)


def tabular_sample(
    policy: TabularPolicy,
    state: str,
    n: int,
    seed: int,
    temperature: float = 1.0,
    table: str = "cur",
) -> list[Sampled]:
    """n independent draws from the policy; see TabularPolicy._rollouts."""
    return policy._rollouts(state, n, seed, temperature, table)


# ---------------------------------------------------------------------------
# the GRPO core, written once over walks: the (row, action) index pairs a
# completion took through a logit table, one per token (stop included)

Walk = list[tuple[int, int]]


def _clip_slope(ratio: float, advantage: float, epsilon: float) -> float:
    """d/dr of min{r*A, clamp(r)*A} away from the kink points."""
    clamped = max(min(ratio, 1.0 + epsilon), 1.0 - epsilon)
    if ratio * advantage <= clamped * advantage:
        return advantage
    if 1.0 - epsilon < ratio < 1.0 + epsilon:
        return advantage
    return 0.0


def _check_group(policy: TabularPolicy, group: RolloutGroup) -> None:
    if group.advantages is None:
        raise ValueError("group advantages not filled")
    if group.snapshot_id is not None and group.snapshot_id != policy.old_snapshot_id:
        raise StaleSnapshot(
            f"group snapshot {group.snapshot_id} != "
            f"policy old snapshot {policy.old_snapshot_id}"
        )


def _gradient(
    policy: TabularPolicy, groups: list[RolloutGroup], cfg: GrpoConfig
) -> dict[int, list[float]]:
    """Exact gradient of the total objective, sparse over touched rows.

    One step (s, a) over a softmax row adds coeff * (1[a'=a] - pi_cur(a'|s))
    to dJ/dz[s, a'], with coeff = clip_slope * ratio + beta * (exp(d) - 1)
    scaled by the completion's 1/|walk| length normalizer.  So the steps
    are summed first into per-row coefficients C[s][a], identical
    (text, advantage) completions of a group walked once and weighted by
    their count, and each touched row then costs one O(width) pass:
    dJ/dz[s, j] = C[s][j] - sum(C[s]) * pi_cur(j|s).  The ratio, exp(d) - 1
    and whether the ratio lies inside the clip band, where the clip slope
    is the advantage whatever its sign, are computed once per (row, action)
    pair per call, and every row's log-probs come from the policy's memo.
    """
    width = len(policy.actions)
    live, old_rows, ref_rows = policy.logits, policy.old_logits, policy.ref_logits
    dist = policy._dist
    epsilon, beta = cfg.epsilon, cfg.beta
    # (row, action) -> (ratio, exp(d) - 1, ratio inside the clip band)
    terms: dict[tuple[int, int], tuple[float, float, bool]] = {}
    coeffs: dict[int, list[float]] = {}
    for group in groups:
        _check_group(policy, group)
        counts = collections.Counter(  # in first-seen order
            zip((c.text for c in group.completions), group.advantages)
        )
        for (text, advantage), count in counts.items():
            steps = policy.walk(group.prompt_id, text)
            scale = count / len(steps)
            for step in steps:
                s, a = step
                term = terms.get(step)
                if term is None:
                    cur = dist(live[s])[1][a]
                    d = dist(ref_rows[s])[1][a] - cur
                    ratio = math.exp(cur - dist(old_rows[s])[1][a])
                    term = terms[step] = (
                        ratio, math.exp(d) - 1.0, 1.0 - epsilon < ratio < 1.0 + epsilon,
                    )
                ratio, kl, inside = term
                slope = advantage if inside else _clip_slope(ratio, advantage, epsilon)
                coeff = scale * (slope * ratio + beta * kl)
                if coeff == 0.0:
                    continue
                row = coeffs.get(s)
                if row is None:
                    row = coeffs[s] = [0.0] * width
                row[a] += coeff
    grad: dict[int, list[float]] = {}
    for s, c in coeffs.items():
        total = sum(c)
        grad[s] = [cj - total * math.exp(lp) for cj, lp in zip(c, dist(live[s])[1])]
    return grad


def _ascend(policy: TabularPolicy, grad_rows, lr: float) -> None:
    """Replace each (row index, gradient row) pair's live row with the row
    plus lr times the gradient; untouched rows stay shared with snapshots.
    Every row made here is new, so the memo of row distributions empties."""
    policy._dists.clear()
    logits = policy.logits
    for s, row in grad_rows:
        logits[s] = tuple([v + lr * g for v, g in zip(logits[s], row)])


def tabular_gradient(
    policy: TabularPolicy, groups: list[RolloutGroup], cfg: GrpoConfig
) -> list[list[float]]:
    """Exact gradient of the total objective, dense over every state row."""
    sparse = _gradient(policy, groups, cfg)
    width = len(policy.actions)
    return [sparse.get(s, [0.0] * width) for s in range(len(policy.logits))]


def tabular_grpo_step(
    policy: TabularPolicy,
    groups: list[RolloutGroup],
    cfg: GrpoConfig,
    lr: float,
) -> TabularPolicy:
    """Ascend the exact objective gradient over the touched rows; returns
    the policy."""
    _ascend(policy, _gradient(policy, groups, cfg).items(), lr)
    return policy


# ---------------------------------------------------------------------------
# token-level sequence policy

class TokenSequencePolicy(TabularPolicy):
    """Autoregressive token policy over a finite single-character vocabulary.

    A TabularPolicy with one row per (prompt, prefix) context and whose
    actions are the tokens (the stop included), so snapshots, ratios, the KL
    reference, the rollout loop, walk() and the GRPO core are the tabular
    ones, and completions carry one log-prob per drawn token.

    The rows come by prefix length, then prompt, then the prefix read as a
    base-|vocab| number.  With offset[t] the first row of the prefixes of
    length t, the first token of prompt p is drawn in row p (its
    state_index), and after token a, drawn in row r at position t, the next
    token is drawn in row offset[t + 1] + (r - offset[t]) * |vocab| + a.
    So sampling and walk() only count; the policy keeps no table of
    contexts, and no character of a prompt or token is reserved.

    Rows are immutable and shared with the snapshots, so a snapshot costs
    one list copy however many contexts there are, and a step replaces only
    the rows of the contexts its completions passed.  With a stop token the
    string may end early; without one every rollout is exactly max_tokens
    long, which keeps sampling odds flat across competing strings.  Exact
    strings are exponentially rare under the uniform start, which is what
    makes reward shaping observable at desk scale.
    """

    def __init__(
        self,
        prompts: tuple[str, ...],
        vocab: tuple[str, ...],
        max_tokens: int,
        eos: str | None = None,
    ) -> None:
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if any(len(tok) != 1 for tok in vocab):
            raise ValueError("vocab tokens must be single characters")
        if eos is not None and eos in vocab:
            raise ValueError("eos must not appear in the vocabulary")
        if len(set(prompts)) != len(prompts) or len(set(vocab)) != len(vocab):
            raise ValueError("prompts and tokens must be distinct")
        offsets = [0]  # offsets[t]: the first row of the prefixes of length t
        for t in range(max_tokens):
            offsets.append(offsets[-1] + len(prompts) * len(vocab) ** t)
            if offsets[-1] > 200_000:
                raise ValueError(f"context table too large ({offsets[-1]} states)")
        self.prompts = tuple(prompts)
        self.vocab = tuple(vocab)
        self.max_tokens = max_tokens
        self.eos = eos
        self._offsets = tuple(offsets)
        self._width = len(vocab)
        self._state_index = {p: i for i, p in enumerate(self.prompts)}
        actions = self.vocab if eos is None else self.vocab + (eos,)
        self._init_tables(actions, [(0.0,) * len(actions)] * offsets[-1])

    def _child(self, row: int, t: int, action: int) -> int:
        offsets = self._offsets
        return offsets[t + 1] + (row - offsets[t]) * self._width + action

    def _tokens(self, text: str) -> list[str]:
        toks = list(text)
        for tok in toks:
            if tok not in self.vocab:
                raise UnknownState(f"token {tok!r} not in vocabulary")
        if len(toks) > self.max_tokens:
            raise UnknownState(f"text longer than {self.max_tokens} tokens")
        if len(toks) < self.max_tokens:
            if self.eos is None:
                raise UnknownState(f"text shorter than {self.max_tokens} tokens")
            toks.append(self.eos)
        return toks

    # sample, snapshot_old, gradient and grpo_step are written out here so a
    # trace can count the sequence policy's calls apart

    def snapshot_old(self) -> int:
        return super().snapshot_old()

    def sample(
        self,
        prompt: str,
        n: int,
        seed: int,
        temperature: float = 1.0,
        table: str = "cur",
    ) -> list[Sampled]:
        return self._rollouts(prompt, n, seed, temperature, table)

    def gradient(
        self, groups: list[RolloutGroup], cfg: GrpoConfig
    ) -> dict[int, list[float]]:
        """Exact objective gradient, sparse over touched context rows."""
        return _gradient(self, groups, cfg)

    def grpo_step(
        self, groups: list[RolloutGroup], cfg: GrpoConfig, lr: float
    ) -> "TokenSequencePolicy":
        _ascend(self, self.gradient(groups, cfg).items(), lr)
        return self


# ---------------------------------------------------------------------------
# remote LLM client

@checked
class RemoteEndpointConfig(NamedTuple):
    base_url: str
    model: str
    timeout: float = 30.0
    max_retries: int = 3
    api_key_var: str = API_KEY_VAR

    def _check(self) -> None:
        # nan, inf and huge values would fail inside the socket call, where
        # the client does not count them as network failures
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:g} seconds,"
                f" not {self.timeout!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # urllib would also open file: and ftp: URLs, and a bad port would
        # only surface as a retried connection error
        import urllib.parse

        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http(s) URL: {self.base_url!r}")
        parts.port  # raises ValueError for a port that is not a number in range


class HttpReply(NamedTuple):
    status_code: int
    body: bytes

    def json(self):
        return jsonlib.loads(self.body)


class UrllibTransport:
    """POST a JSON payload with urllib; every HTTP status comes back as a reply.

    An error status is a reply like any other, redirects included (none is
    followed), so RemoteClient alone decides what to retry.  Network failures
    propagate as OSError (URLError, TimeoutError) or http.client.HTTPException.
    """

    def __init__(self) -> None:
        import urllib.request

        class RefuseRedirect(urllib.request.HTTPRedirectHandler):
            """Leave a 3xx as an HTTPError: following it would resend the
            bearer header to whatever host the Location names, over http too."""

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None

        self._opener = urllib.request.build_opener(RefuseRedirect)

    def post(self, url, json=None, headers=None, timeout=None) -> HttpReply:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            url,
            data=jsonlib.dumps(json, allow_nan=False).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        try:
            with self._opener.open(request, timeout=timeout) as reply:
                return HttpReply(reply.status, reply.read())
        except urllib.error.HTTPError as exc:
            with exc:
                return HttpReply(exc.code, exc.read())


class RemoteClient:
    """Minimal chat-completions client with retries; the caller's thread
    pool alone decides how many calls are in flight."""

    def __init__(self, cfg: RemoteEndpointConfig, session=None, sleep=time.sleep):
        self.cfg = cfg
        self._session = session if session is not None else UrllibTransport()
        self._sleep = sleep

    def complete(self, prompt: str, n: int = 1, temperature: float = 1.0) -> list[Sampled]:
        import http.client  # for the except clause below

        key = os.environ.get(self.cfg.api_key_var)
        if not key:
            raise AuthMissing(f"{self.cfg.api_key_var} is not set")
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "n": n,
            "temperature": temperature,
        }
        url = self.cfg.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {key}"}
        last_error: Exception | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(min(0.5 * 2 ** (attempt - 1), 8.0))
            try:
                response = self._session.post(
                    url, json=payload, headers=headers, timeout=self.cfg.timeout,
                )
            except (OSError, http.client.HTTPException) as exc:
                # urllib wraps a connect timeout in URLError; a read timeout
                # arrives bare
                if isinstance(exc, TimeoutError) or isinstance(
                    getattr(exc, "reason", None), TimeoutError
                ):
                    last_error = Timeout(str(exc))
                else:
                    last_error = HttpStatus(0, f"connection error: {exc}")
                continue
            if response.status_code in _RETRYABLE_STATUS:
                last_error = HttpStatus(response.status_code, "retryable")
                continue
            if response.status_code != 200:
                raise HttpStatus(response.status_code)
            return self._parse(response, n)
        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse(response, n: int) -> list[Sampled]:
        try:
            body = response.json()
        except ValueError as exc:
            raise MalformedResponse(f"not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise MalformedResponse(f"not a JSON object: {body!r:.80}")
        choices = body.get("choices")
        if not isinstance(choices, list) or len(choices) != n:
            raise MalformedResponse(
                f"expected {n} choices, got {choices!r:.80}"
            )
        out = []
        for choice in choices:
            try:
                content = choice["message"]["content"]
            except (TypeError, KeyError) as exc:
                raise MalformedResponse(f"bad choice shape: {choice!r:.80}") from exc
            if not isinstance(content, str):
                raise MalformedResponse(f"content is not a string: {content!r:.80}")
            out.append(Sampled(content))
        return out


# ---------------------------------------------------------------------------
# prompt templates and SMILES extraction

DEFAULT_PROMPTS = {
    "caption_template": "Describe the molecule {smiles} in one short sentence.",
    "generate_template": (
        "Answer with a single SMILES string and nothing else: {caption}"
    ),
}
_TEMPLATE_FIELDS = {"caption_template": "smiles", "generate_template": "caption"}


def load_prompts(path: str | None = None) -> dict[str, str]:
    """key = value template file; missing keys fall back to the defaults.
    Lines other than blanks, # comments and known key = value pairs fail."""
    prompts = dict(DEFAULT_PROMPTS)
    if path is None:
        return prompts
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: not a key = value line")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULT_PROMPTS:
                raise ValueError(f"{path}:{line_no}: unknown prompt key {key!r}")
            prompts[key] = value.strip()
    return prompts


def _check_templates(prompts: dict[str, str]) -> None:
    """Each template names its own field, and no other, and formats."""
    import string  # only template checks parse format strings

    if set(prompts) != set(_TEMPLATE_FIELDS):
        raise ValueError(
            f"prompt keys must be {sorted(_TEMPLATE_FIELDS)}, not {sorted(prompts)}"
        )
    for key, field in _TEMPLATE_FIELDS.items():
        template = prompts[key]
        try:
            names = {
                name for _, name, _, _ in string.Formatter().parse(template)
                if name is not None
            }
            if names == {field}:
                template.format(**{field: "C"})
        except (LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"prompt {key} does not format: {exc!r}") from None
        if names != {field}:
            shown = ", ".join(f"{{{name}}}" for name in sorted(names)) or "none"
            raise ValueError(
                f"prompt {key} must name {{{field}}} and no other field, not {shown}"
            )


class RemoteAdapter:
    """caption() and generate() over a RemoteClient plus prompt templates."""

    def __init__(self, client: RemoteClient, prompts: dict[str, str] | None = None):
        self._client = client
        self._prompts = prompts if prompts is not None else dict(DEFAULT_PROMPTS)
        _check_templates(self._prompts)  # before any call

    def caption(self, molecule, n, temperature=1.0):
        prompt = self._prompts["caption_template"].format(smiles=molecule)
        return self._client.complete(prompt, n, temperature)

    def generate(self, caption, n, temperature=1.0):
        prompt = self._prompts["generate_template"].format(caption=caption)
        out = []
        for sample in self._client.complete(prompt, n, temperature):
            extracted = extract_smiles(sample.text)
            out.append(Sampled(extracted if extracted is not None else sample.text))
        return out


def extract_smiles(text: str) -> str | None:
    """Pull a valid SMILES out of free-form model output: the longest
    whitespace-separated token that parses and validates, falling back to
    the whole stripped text.
    """
    # a stable sort over first occurrences: the first longest token wins
    candidates = sorted(dict.fromkeys(text.split()), key=len, reverse=True)
    for candidate in candidates:
        if check_validity(candidate).is_valid:
            return candidate
    whole = text.strip()
    if whole and check_validity(whole).is_valid:
        return whole
    return None
