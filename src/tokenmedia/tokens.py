"""Token systems: finite state sets acted on by paired invertible tokens.

A token system is an ordered set of states together with an ordered set of
tokens, each acting as a total function on states.  Four axioms single out
the systems called media:

  M1  every token has a unique reverse (declared explicitly in the input);
  M2  any two distinct states are joined by a straight message;
  M3  a stepwise-effective message returns to its start iff it is vacuous;
  M4  straight messages producing the same state are jointly consistent.

``check_axioms`` is a bounded brute-force falsifier: failure verdicts are
exact and carry replayable witnesses, while M3/M4 success verdicts only
certify the absence of violations up to a message-length bound.  The exact
decision procedure is ``tokenmedia.represent.decide_medium``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputError, ParseError

#: A message is a finite sequence of token ids, applied left to right.
Message = Sequence[str]

AXIOMS = ("M1", "M2", "M3", "M4")

HOLDS = "holds"
HOLDS_UP_TO_BOUND = "holds-up-to-bound"
FAILS = "fails"
SKIPPED = "skipped"


@dataclass(frozen=True)
class TokenSystem:
    """States plus a total token action table and an optional reverse pairing.

    ``action[token][state]`` is the state produced by applying ``token``.
    The identity transformation is not a token: construction rejects any
    token fixing every state.  ``reverse``, when present, must be a total
    fixed-point-free involution on the token ids; it is declared input, not
    inferred from the action table.
    """

    states: tuple[str, ...]
    tokens: tuple[str, ...]
    action: Mapping[str, Mapping[str, str]]
    reverse: Mapping[str, str] | None = None

    def __post_init__(self):
        states, tokens = self.states, self.tokens
        if len(states) < 2:
            raise InputError("a token system needs more than one state")
        state_set = frozenset(states)
        if len(state_set) != len(states):
            raise InputError("duplicate state ids")
        token_set = frozenset(tokens)
        if len(token_set) != len(tokens):
            raise InputError("duplicate token ids")
        if set(self.action) != set(token_set):
            raise InputError("action table must have exactly one row per token")
        for t in tokens:
            row = self.action[t]
            if len(row) != len(states):
                raise InputError(f"action of token {t!r} is not total")
            moved = False
            for s in states:
                v = row.get(s)
                if v is None:
                    raise InputError(f"action of token {t!r} missing state {s!r}")
                if v not in state_set:
                    raise InputError(f"action of token {t!r} leaves the state set")
                moved = moved or v != s
            if not moved:
                raise InputError(f"token {t!r} acts as the identity on every state")
        if self.reverse is None and not tokens:
            object.__setattr__(self, "reverse", {})  # empty pairing is trivially valid
        if self.reverse is not None:
            rev = self.reverse
            if set(rev) != set(token_set):
                raise InputError("reverse pairing must cover every token")
            for t in tokens:
                r = rev[t]
                if r == t or r not in token_set or rev[r] != t:
                    raise InputError("reverse pairing must be a fixed-point-free involution")
        object.__setattr__(self, "_state_set", state_set)
        object.__setattr__(self, "_token_set", token_set)

    def has_state(self, s: str) -> bool:
        return s in self._state_set

    def has_token(self, t: str) -> bool:
        return t in self._token_set

    def moves(self, t: str) -> frozenset[tuple[str, str]]:
        """All pairs (s, v) with s != v moved by token t."""
        if t not in self._token_set:
            raise InputError(f"unknown token id {t!r}")
        row = self.action[t]
        return frozenset((s, v) for s in self.states if (v := row[s]) != s)

    def to_json_dict(self) -> dict:
        toks = []
        for t in self.tokens:
            entry: dict = {"id": t}
            if self.reverse is not None:
                entry["reverse"] = self.reverse[t]
            toks.append(entry)
        return {
            "states": list(self.states),
            "tokens": toks,
            "action": {t: {s: self.action[t][s] for s in self.states} for t in self.tokens},
        }

    @classmethod
    def from_json_dict(cls, doc) -> "TokenSystem":
        if not isinstance(doc, dict):
            raise ParseError("token system document must be a JSON object")
        try:
            states = tuple(str(s) for s in doc["states"])
            raw_tokens = doc["tokens"]
            action = doc["action"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"token system document missing field: {exc}") from None
        tokens = []
        reverse: dict[str, str] = {}
        saw_reverse = False
        for entry in raw_tokens:
            if isinstance(entry, str):
                tokens.append(entry)
                continue
            try:
                tokens.append(str(entry["id"]))
            except (KeyError, TypeError):
                raise ParseError("token entries need an 'id' field") from None
            if "reverse" in entry:
                saw_reverse = True
                reverse[str(entry["id"])] = str(entry["reverse"])
        if saw_reverse and len(reverse) != len(tokens):
            raise ParseError("either every token or no token may declare a reverse")
        try:
            act = {t: dict(action[t]) for t in tokens}
        except (KeyError, TypeError):
            raise ParseError("action table must have one row per declared token") from None
        try:
            return cls(states, tuple(tokens), act, reverse if saw_reverse else None)
        except InputError as exc:
            raise ParseError(str(exc)) from None


def apply(ts: TokenSystem, state: str, message: Message) -> str:
    """Run a message left to right from a state; the empty message is the identity."""
    if not ts.has_state(state):
        raise InputError(f"unknown state id {state!r}")
    act = ts.action
    cur = state
    for t in message:
        row = act.get(t)
        if row is None:
            raise InputError(f"unknown token id {t!r}")
        cur = row[cur]
    return cur


def content(message: Message) -> frozenset[str]:
    """The set of distinct tokens occurring in a message."""
    return frozenset(message)


def message_reverse(ts: TokenSystem, message: Message) -> tuple[str, ...]:
    """The reversed message with every token replaced by its declared reverse."""
    rev = _require_reverse(ts)
    out = []
    for t in reversed(list(message)):
        if t not in rev:
            raise InputError(f"unknown token id {t!r}")
        out.append(rev[t])
    return tuple(out)


def is_stepwise_effective(ts: TokenSystem, state: str, message: Message) -> bool:
    """True iff every prefix application changes the state."""
    if not ts.has_state(state):
        raise InputError(f"unknown state id {state!r}")
    act = ts.action
    cur = state
    for t in message:
        row = act.get(t)
        if row is None:
            raise InputError(f"unknown token id {t!r}")
        nxt = row[cur]
        if nxt == cur:
            return False
        cur = nxt
    return True


def is_consistent(ts: TokenSystem, message: Message) -> bool:
    """True iff the message never contains a token together with its reverse."""
    rev = _require_reverse(ts)
    seen: set[str] = set()
    for t in message:
        if t not in rev:
            raise InputError(f"unknown token id {t!r}")
        if rev[t] in seen:
            return False
        seen.add(t)
    return True


def is_vacuous(ts: TokenSystem, message: Message) -> bool:
    """True iff the occurrences pair off into mutually reverse pairs.

    Equivalently: every token occurs exactly as often as its reverse.
    """
    rev = _require_reverse(ts)
    counts = Counter()
    for t in message:
        if t not in rev:
            raise InputError(f"unknown token id {t!r}")
        counts[t] += 1
    return all(counts[t] == counts[rev[t]] for t in counts)


def straight_message(ts: TokenSystem, source: str, target: str) -> tuple[str, ...] | None:
    """A shortest consistent stepwise-effective message from source to target.

    Breadth-first search over (state, used-token-set) nodes, so consistency
    is enforced exactly; returns None when no straight message exists.
    """
    rev = _require_reverse(ts)
    for s in (source, target):
        if not ts.has_state(s):
            raise InputError(f"unknown state id {s!r}")
    if source == target:
        raise InputError("source and target states must differ")
    return _straight_search(ts, source, target, rev)


def _require_reverse(ts: TokenSystem) -> Mapping[str, str]:
    if ts.reverse is None:
        raise InputError("operation needs a declared reverse pairing")
    return ts.reverse


def _straight_search(ts, source, target, rev):
    act = ts.action
    tokens = ts.tokens
    start = (source, frozenset())
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        cur, used = node
        if cur == target:
            msg = []
            while parent[node] is not None:
                node, t = parent[node]
                msg.append(t)
            return tuple(reversed(msg))
        for t in tokens:
            v = act[t][cur]
            if v == cur or rev[t] in used:
                continue
            nxt = (v, used | {t})
            if nxt not in parent:
                parent[nxt] = (node, t)
                queue.append(nxt)
    return None


# --- axiom checking -------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    verdict: str
    witness: Mapping | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in (HOLDS, HOLDS_UP_TO_BOUND)

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts from the bounded falsifier.

    M1 and M2 verdicts are exact ("holds"/"fails"); M3 and M4 are checked
    by exhaustive message enumeration up to ``bound``, so their positive
    verdict is "holds-up-to-bound".  When M1 fails the remaining axioms are
    reported "skipped": consistency and vacuousness are only meaningful
    relative to a valid reverse pairing.
    """

    checks: tuple[AxiomCheck, ...]
    bound: int

    def __getitem__(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "axioms": {c.axiom: c.to_json_dict() for c in self.checks},
        }


def reverse_defect(ts: TokenSystem) -> dict | None:
    """Exact M1 check; None when every token's declared reverse is its unique one.

    A token u is a reverse candidate for t when the moves of u are exactly
    the inverted moves of t (fixed points are unconstrained).  M1 demands a
    declared pairing that matches a unique candidate per token.
    """
    if ts.reverse is None:
        return {"axiom": "M1", "kind": "missing-reverse-pairing"}
    for t, cands in _reverse_candidates(ts.states, ts.tokens, ts.action).items():
        declared = ts.reverse[t]
        if declared not in cands:
            return _declared_breach(ts, t, declared)
        if len(cands) > 1:
            return {
                "axiom": "M1",
                "kind": "ambiguous-reverse",
                "token": t,
                "candidates": cands,
            }
    return None


def _declared_breach(ts, t, declared):
    act = ts.action
    for s in ts.states:
        v = act[t][s]
        if v != s and act[declared][v] != s:
            return {
                "axiom": "M1",
                "kind": "declared-not-reverse",
                "token": t,
                "declared": declared,
                "state": s,
                "message": [t, declared],
            }
    for v in ts.states:
        s = act[declared][v]
        if s != v and act[t][s] != v:
            return {
                "axiom": "M1",
                "kind": "declared-not-reverse",
                "token": t,
                "declared": declared,
                "state": v,
                "message": [declared, t],
            }
    # unreachable: declared not a candidate implies a breach on some move
    return {"axiom": "M1", "kind": "declared-not-reverse", "token": t, "declared": declared}


def check_axioms(ts: TokenSystem, bound: int | None = None) -> AxiomReport:
    """Bounded axiom falsifier.

    ``bound`` caps the length of messages enumerated for M3/M4 and defaults
    to twice the token count.  Failure witnesses replay through ``apply``.
    """
    if bound is None:
        bound = max(1, 2 * len(ts.tokens))
    if bound < 1:
        raise InputError("bound must be at least 1")
    defect = reverse_defect(ts)
    if defect is not None:
        skipped = tuple(
            AxiomCheck(a, SKIPPED, note="not evaluated: M1 failed, no usable reverse pairing")
            for a in ("M2", "M3", "M4")
        )
        return AxiomReport((AxiomCheck("M1", FAILS, defect),) + skipped, bound)
    rev = ts.reverse
    m1 = AxiomCheck("M1", HOLDS)
    w2 = _violates_m2(ts, rev)
    m2 = AxiomCheck("M2", FAILS, w2) if w2 else AxiomCheck("M2", HOLDS)
    w3 = _violates_m3(ts, rev, bound)
    m3 = AxiomCheck("M3", FAILS, w3) if w3 else AxiomCheck("M3", HOLDS_UP_TO_BOUND)
    w4 = _violates_m4(ts, rev, bound)
    m4 = AxiomCheck("M4", FAILS, w4) if w4 else AxiomCheck("M4", HOLDS_UP_TO_BOUND)
    return AxiomReport((m1, m2, m3, m4), bound)


def _violates_m2(ts, rev):
    for s in ts.states:
        for v in ts.states:
            if v != s and _straight_search(ts, s, v, rev) is None:
                return {"axiom": "M2", "source": s, "target": v}
    return None


def _violates_m3(ts, rev, bound):
    act = ts.action
    tokens = ts.tokens
    index = {t: i for i, t in enumerate(tokens)}
    canon = {t: (t if index[t] < index[rev[t]] else rev[t]) for t in tokens}
    for s0 in ts.states:
        path: list[str] = []
        diff: dict[str, int] = {}
        unbalanced = 0

        def walk(cur):
            nonlocal unbalanced
            if len(path) >= bound:
                return None
            for t in tokens:
                v = act[t][cur]
                if v == cur:
                    continue
                key = canon[t]
                old = diff.get(key, 0)
                new = old + (1 if key == t else -1)
                diff[key] = new
                if old == 0:
                    unbalanced += 1
                elif new == 0:
                    unbalanced -= 1
                path.append(t)
                if v == s0 and unbalanced:
                    return {
                        "axiom": "M3",
                        "kind": "ineffective-but-not-vacuous",
                        "state": s0,
                        "message": list(path),
                    }
                if v != s0 and not unbalanced:
                    return {
                        "axiom": "M3",
                        "kind": "vacuous-but-effective",
                        "state": s0,
                        "message": list(path),
                        "end": v,
                    }
                found = walk(v)
                if found:
                    return found
                path.pop()
                diff[key] = old
                if old == 0:
                    unbalanced -= 1
                elif new == 0:
                    unbalanced += 1
            return None

        witness = walk(s0)
        if witness:
            return witness
    return None


def _violates_m4(ts, rev, bound):
    act = ts.action
    tokens = ts.tokens
    # first straight message seen per (produced state, content token)
    record: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
    for s0 in ts.states:
        path: list[str] = []
        used: set[str] = set()

        def walk(cur):
            if len(path) >= bound:
                return None
            for t in tokens:
                v = act[t][cur]
                if v == cur or rev[t] in used:
                    continue
                fresh = t not in used
                used.add(t)
                path.append(t)
                for tok in used:
                    prior = record.get((v, rev[tok]))
                    if prior is not None:
                        return {
                            "axiom": "M4",
                            "produced": v,
                            "state1": s0,
                            "message1": list(path),
                            "state2": prior[0],
                            "message2": list(prior[1]),
                        }
                frozen = tuple(path)
                for tok in used:
                    record.setdefault((v, tok), (s0, frozen))
                found = walk(v)
                if found:
                    return found
                path.pop()
                if fresh:
                    used.discard(t)
            return None

        witness = walk(s0)
        if witness:
            return witness
    return None


# --- reductions -----------------------------------------------------------


def reduction(ts: TokenSystem, keep: Iterable[str]) -> TokenSystem:
    """Restrict a token system to a subset of its states.

    Each token is replaced by its reduction (acting as before when the image
    stays inside ``keep``, fixing the state otherwise); identity reductions
    are dropped and duplicate reductions merged under the first contributing
    token id.  The reverse pairing is recomputed from scratch on the reduced
    system and may no longer exist.
    """
    keep_set = frozenset(keep)
    if not keep_set <= frozenset(ts.states):
        raise InputError("states to keep must belong to the system")
    if len(keep_set) < 2:
        raise InputError("a reduction needs at least two states")
    states = tuple(s for s in ts.states if s in keep_set)
    seen: dict[tuple[str, ...], str] = {}
    order: list[str] = []
    action: dict[str, dict[str, str]] = {}
    for t in ts.tokens:
        row = {}
        identity = True
        for s in states:
            v = ts.action[t][s]
            if v not in keep_set:
                v = s
            row[s] = v
            identity = identity and v == s
        if identity:
            continue
        sig = tuple(row[s] for s in states)
        if sig in seen:
            continue
        seen[sig] = t
        order.append(t)
        action[t] = row
    reverse = _recompute_reverse(states, order, action)
    return TokenSystem(states, tuple(order), action, reverse)


def _reverse_candidates(states, tokens, action) -> dict[str, list[str]]:
    """Each token's reverse candidates, in token order: the tokens whose moves
    are exactly its inverted moves, found through an index by move set."""
    moves = {
        t: frozenset((s, v) for s in states if (v := action[t][s]) != s) for t in tokens
    }
    by_moves: dict[frozenset, list[str]] = {}
    for t in tokens:
        by_moves.setdefault(moves[t], []).append(t)
    return {t: by_moves.get(frozenset((v, s) for (s, v) in moves[t]), []) for t in tokens}


def _recompute_reverse(states, tokens, action):
    cands = _reverse_candidates(states, tokens, action)
    if all(len(c) == 1 and c[0] != t for t, c in cands.items()):
        return {t: c[0] for t, c in cands.items()}
    return None
