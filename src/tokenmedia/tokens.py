"""Token systems: finite state sets acted on by paired invertible tokens.

A token system is an ordered set of states together with an ordered set of
tokens, each acting as a total function on states.  Four axioms single out
the systems called media:

  M1  every token has a unique reverse (declared explicitly in the input);
  M2  any two distinct states are joined by a straight message;
  M3  a stepwise-effective message returns to its start iff it is vacuous;
  M4  straight messages producing the same state are jointly consistent.

``check_axioms`` is exact on every system and enumerates no message.  It
reads the decision ``tokenmedia.represent.decide_medium`` first: on a
medium all four axioms hold outright.  On any other system M1 is the exact
``reverse_defect``, and M2-M4 are read off the token-pair potentials that
``tokenmedia.represent`` stores beside the decision; every failure verdict
carries a witness that replays.
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

    The one walk over the table that validates it also stores the move
    index: each state's position in ``states`` and, per token in token
    order, its effective moves as (state index, target index) pairs in
    state order.  ``moves``, the exact M1 check, the axiom potentials, the
    decision, the medium graph and the isomorphism search read that index
    and never the table again.
    """

    states: tuple[str, ...]
    tokens: tuple[str, ...]
    action: Mapping[str, Mapping[str, str]]
    reverse: Mapping[str, str] | None = None

    def __post_init__(self):
        states, tokens = self.states, self.tokens
        if len(states) < 2:
            raise InputError("a token system needs more than one state")
        index = dict(zip(states, range(len(states))))
        if len(index) != len(states):
            raise InputError("duplicate state ids")
        token_set = frozenset(tokens)
        if len(token_set) != len(tokens):
            raise InputError("duplicate token ids")
        if self.action.keys() != token_set:
            raise InputError("action table must have exactly one row per token")
        index_moves: dict[str, list[tuple[int, int]]] = {}
        for t in tokens:
            row = self.action[t]
            if len(row) != len(states):
                raise InputError(f"action of token {t!r} is not total")
            ms = index_moves[t] = []
            for s in states:
                v = row.get(s)
                if v != s:
                    if v is None:
                        raise InputError(f"action of token {t!r} missing state {s!r}")
                    try:
                        ms.append((index[s], index[v]))
                    except (KeyError, TypeError):  # TypeError: an unhashable entry
                        raise InputError(f"action of token {t!r} leaves the state set") from None
            if not ms:
                raise InputError(f"token {t!r} acts as the identity on every state")
        if self.reverse is None and not tokens:
            object.__setattr__(self, "reverse", {})  # empty pairing is trivially valid
        if self.reverse is not None:
            rev = self.reverse
            if rev.keys() != token_set:
                raise InputError("reverse pairing must cover every token")
            for t in tokens:
                r = rev[t]
                if r == t or r not in token_set or rev[r] != t:
                    raise InputError("reverse pairing must be a fixed-point-free involution")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_index_moves", index_moves)
        object.__setattr__(self, "_moves", {})

    def has_state(self, s: str) -> bool:
        return s in self._index

    def has_token(self, t: str) -> bool:
        return t in self._index_moves

    def moves(self, t: str) -> frozenset[tuple[str, str]]:
        """All pairs (s, v) with s != v moved by token t, built once per token
        from the move index."""
        if t not in self._moves:
            if t not in self._index_moves:
                raise InputError(f"unknown token id {t!r}")
            states = self.states
            self._moves[t] = frozenset((states[i], states[j]) for i, j in self._index_moves[t])
        return self._moves[t]

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
        if not isinstance(raw_tokens, list):
            raise ParseError("token system 'tokens' must be a list")
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
            rows = {t: action[t] for t in tokens}
        except (KeyError, TypeError):
            raise ParseError("action table must have one row per declared token") from None
        if not all(isinstance(row, dict) for row in rows.values()):
            raise ParseError("each action row must be a JSON object")
        try:
            return cls(states, tuple(tokens), {t: dict(row) for t, row in rows.items()},
                       reverse if saw_reverse else None)
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
        return self.verdict == HOLDS

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts of ``check_axioms``, each exact: "holds", "fails"
    with a witness, or "skipped" with a note.

    When M1 fails the remaining axioms are skipped: consistency and
    vacuousness are only meaningful relative to a valid reverse pairing.
    When M3 fails there are no potentials to read M4 off, so M4 is skipped,
    and M2 too unless the system is disconnected.  ``bound`` is the bound
    ``check_axioms`` was given, or its default, reported unchanged; it
    affects no verdict.
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
    declared pairing that matches a unique candidate per token.  Candidates
    are found by grouping the move sets of the stored move index, with no
    pass over the action table.  The result is computed once and stored on
    ``ts``, so ``check_axioms`` and ``decide_medium`` share it.
    """
    if not hasattr(ts, "_defect"):
        object.__setattr__(ts, "_defect", _find_reverse_defect(ts))
    return ts._defect


def _find_reverse_defect(ts):
    if ts.reverse is None:
        return {"axiom": "M1", "kind": "missing-reverse-pairing"}
    for t, cands in _reverse_candidates(ts).items():
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
    moves = ts._index_moves
    for first, then in ((t, declared), (declared, t)):
        image = dict(moves[then])
        for i, j in moves[first]:
            if image.get(j, j) != i:
                return {"axiom": "M1", "kind": "declared-not-reverse", "token": t,
                        "declared": declared, "state": ts.states[i], "message": [first, then]}
    # unreachable: declared not a candidate implies a breach on some move
    return {"axiom": "M1", "kind": "declared-not-reverse", "token": t, "declared": declared}


def check_axioms(ts: TokenSystem, bound: int | None = None) -> AxiomReport:
    """Exact axiom report: every verdict is "holds", "fails" or "skipped".

    On a medium the decision stored on ``ts`` says M1-M4 hold outright.  On
    any other system M1 is ``reverse_defect``, and M2-M4 are read off the
    token-pair potentials of ``represent._axiom_witnesses``, stored on
    ``ts`` beside the decision; no message is enumerated.  When M1 fails,
    M2-M4 are skipped; when M3 fails, M4 is skipped, and so is M2 unless
    the system is disconnected.  ``bound`` changes no verdict: it is
    validated (at least 1), defaults to twice the token count and is
    reported, so that callers passing it keep working.
    """
    from .represent import _axiom_witnesses, decide_medium

    if bound is None:
        bound = max(1, 2 * len(ts.tokens))
    if bound < 1:
        raise InputError("bound must be at least 1")
    if decide_medium(ts).is_medium:
        return AxiomReport(tuple(AxiomCheck(a, HOLDS) for a in AXIOMS), bound)
    defect = reverse_defect(ts)
    if defect is not None:
        skipped = tuple(
            AxiomCheck(a, SKIPPED, note="not evaluated: M1 failed, no usable reverse pairing")
            for a in ("M2", "M3", "M4")
        )
        return AxiomReport((AxiomCheck("M1", FAILS, defect),) + skipped, bound)
    found = _axiom_witnesses(ts)
    checks = [AxiomCheck("M1", HOLDS)]
    for a in ("M2", "M3", "M4"):
        if a not in found:
            checks.append(AxiomCheck(a, SKIPPED, note="not evaluated: M3 failed"))
        else:
            checks.append(AxiomCheck(a, FAILS, found[a]) if found[a] else AxiomCheck(a, HOLDS))
    return AxiomReport(tuple(checks), bound)


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
    plain = TokenSystem(states, tuple(order), action)
    cands = _reverse_candidates(plain)
    if all(len(c) == 1 and c[0] != t for t, c in cands.items()):
        return TokenSystem(states, plain.tokens, action, {t: c[0] for t, c in cands.items()})
    return plain


def _reverse_candidates(ts) -> dict[str, list[str]]:
    """Each token's reverse candidates, in token order: the tokens whose moves
    are exactly its inverted moves, found through the move index by move set."""
    moves = {t: frozenset(ms) for t, ms in ts._index_moves.items()}
    by_moves: dict[frozenset, list[str]] = {}
    for t, ms in moves.items():
        by_moves.setdefault(ms, []).append(t)
    return {t: by_moves.get(frozenset((j, i) for i, j in ms), []) for t, ms in moves.items()}
