"""Token systems: finite state sets acted on by paired invertible tokens.

A token system is an ordered set of states together with an ordered set of
tokens, each acting as a total function on states.  A token usually moves
few states, so a system stores only its moves, and the library walks
them.  Four axioms single out the systems called media:

  M1  every token has a unique reverse (declared explicitly in the input);
  M2  any two distinct states are joined by a straight message;
  M3  a stepwise-effective message returns to its start iff it is vacuous;
  M4  straight messages producing the same state are jointly consistent.

``check_axioms`` is exact on every system and enumerates no message.  It
reads the decision ``tokenmedia.represent.decide_medium`` alone: on a
medium all four axioms hold outright, an M1 failure is the decision's
witness, and on any other system M2-M4 are read off the token-pair
potentials, as threshold labels, that the decision keeps; every failure
verdict carries a witness that replays.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, ParseError, json_list

#: A message is a finite sequence of token ids, applied left to right.
Message = Sequence[str]

AXIOMS = ("M1", "M2", "M3", "M4")

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"


def _dense_row(states, ms) -> dict:
    """A token's full row, fixed points included, in state order, from its
    moves as (state index, target index) pairs."""
    row = dict(zip(states, states))
    for i, j in ms:
        row[states[i]] = states[j]
    return row


def _dense_table(ts: TokenSystem) -> list:
    """The text of ``json.dumps(ts.to_json_dict()["action"], sort_keys=True, separators=(",", ":"))``
    as pieces, from the move index: the state names are escaped and ordered once, and each row
    is a copy of the fixed entries with its moves put in, joined once."""
    states = ts.states
    names = list(map(encode_basestring_ascii, states))
    order = sorted(range(len(states)), key=states.__getitem__)
    place = sorted(range(len(states)), key=order.__getitem__)  # each state's rank in the order
    keyed = [name + ":" for name in names]
    fixed = [keyed[i] + names[i] for i in order]
    out = []
    for t, ms in sorted(ts._index_moves.items()):
        row = fixed.copy()
        for i, j in ms:
            row[place[i]] = keyed[i] + names[j]
        out += ",", encode_basestring_ascii(t), ":{", ",".join(row), "}"
    out[:1] = "{"  # in place of the first comma, or the only piece of an empty table
    out.append("}")
    return out


def _paired(pairs) -> tuple[list, dict, dict]:
    """The tokens, moves and reverse pairing of (forward id, backward id, forward
    moves) triples: per pair the forward token, then the backward one, which moves
    the forward images back."""
    tokens, moves, reverse = [], {}, {}
    for fwd, bwd, ms in pairs:
        tokens += (fwd, bwd)
        moves[fwd], moves[bwd] = ms, {v: s for s, v in ms.items()}
        reverse[fwd], reverse[bwd] = bwd, fwd
    return tokens, moves, reverse


@dataclass(frozen=True, init=False, repr=False)
class TokenSystem:
    """States plus the moves of each token and an optional reverse pairing.

    The action is given in one of two forms, and both go through one
    validation walk: ``action``, the dense table, where ``action[token][state]``
    is the state produced by applying ``token``, or the keyword ``moves``,
    where ``moves[token]`` maps each state the token moves to its image and
    every other state is a fixed point.  The identity transformation is not
    a token: construction rejects any token fixing every state.  ``reverse``,
    when present, must be a total fixed-point-free involution on the token
    ids; it is declared input, not inferred from the action.

    The walk stores the move index and nothing else of the input: each
    state's position in ``states`` and, per token in token order, its
    effective moves as (state index, target index) pairs in state order.
    Every route of the library, from ``apply`` to the isomorphism search,
    reads that index, and ``to_json_dict`` writes the dense table from it.
    Systems are frozen dataclasses; two are equal when their states, tokens,
    pairing and moves are, and a system is not hashable.
    """

    states: Sequence[str]
    tokens: Sequence[str]
    reverse: Mapping[str, str] | None
    _index: dict[str, int] = field(compare=False)
    _index_moves: dict[str, list[tuple[int, int]]]

    def __init__(self, states: Sequence[str], tokens: Sequence[str],
                 action: Mapping[str, Mapping[str, str]] | None = None,
                 reverse: Mapping[str, str] | None = None,
                 *, moves: Mapping[str, Mapping[str, str]] | None = None):
        if (action is None) == (moves is None):
            raise TypeError("TokenSystem takes exactly one of action and moves")
        if len(states) < 2:
            raise InputError("a token system needs more than one state")
        index = dict(zip(states, range(len(states))))
        if len(index) != len(states):
            raise InputError("duplicate state ids")
        token_set = frozenset(tokens)
        if len(token_set) != len(tokens):
            raise InputError("duplicate token ids")
        index_moves = _index_moves(states, index, tokens, token_set,
                                   moves if action is None else action, dense=action is not None)
        if reverse is None and not tokens:
            reverse = {}  # empty pairing is trivially valid
        if reverse is not None:
            if reverse.keys() != token_set:
                raise InputError("reverse pairing must cover every token")
            for t in tokens:
                r = reverse[t]
                if r == t or r not in token_set or reverse[r] != t:
                    raise InputError("reverse pairing must be a fixed-point-free involution")
        self.__dict__.update(states=states, tokens=tokens, reverse=reverse,
                             _index=index, _index_moves=index_moves)

    @classmethod
    def from_pairs(cls, states: Sequence[str],
                   pairs: Iterable[tuple[str, str, Mapping[str, str]]]) -> "TokenSystem":
        """A paired system from (forward id, backward id, forward moves), one
        per pair in order.  Tokens run forward then backward per pair; each
        backward token moves the forward images back and is declared the
        forward token's reverse (``_paired``).  The one validation walk follows."""
        tokens, moves, reverse = _paired(pairs)
        return cls(states, tuple(tokens), reverse=reverse, moves=moves)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"TokenSystem(states={self.states!r}, tokens={self.tokens!r}, "
                f"moves={sum(map(len, self._index_moves.values()))}, reverse={self.reverse!r})")

    def has_state(self, s: str) -> bool:
        return s in self._index

    def has_token(self, t: str) -> bool:
        return t in self._index_moves

    def moves(self, t: str) -> frozenset[tuple[str, str]]:
        """All pairs (s, v) with s != v moved by token t, built from the move
        index on each call."""
        if t not in self._index_moves:
            raise InputError(f"unknown token id {t!r}")
        states = self.states
        return frozenset((states[i], states[j]) for i, j in self._index_moves[t])

    def _header(self) -> dict:
        """The document's ``"states"``, and its ``"tokens"`` with their reverses."""
        rev = self.reverse
        return {"states": list(self.states),
                "tokens": [{"id": t} if rev is None else {"id": t, "reverse": rev[t]} for t in self.tokens]}

    def to_json_dict(self) -> dict:
        """The dense document: ``_header`` and the ``"action"`` table with its
        rows in state order, built from the move index.  ``_dense_table`` writes
        that table's text as ``json.dumps`` writes it, without building it."""
        return {**self._header(), "action": {t: _dense_row(self.states, ms) for t, ms in self._index_moves.items()}}

    @classmethod
    def from_json_dict(cls, doc) -> "TokenSystem":
        """A system from its document: ``"states"``, ``"tokens"`` (ids, or
        objects with an ``"id"`` and, on every token or none, a ``"reverse"``)
        and exactly one of the dense ``"action"`` table, one row per declared
        token, and the sparse ``"moves"``, ``{token: {state: image}}`` with a
        row for no undeclared token.  Every defect is a ParseError."""
        if not isinstance(doc, dict):
            raise ParseError("token system document must be a JSON object")
        if "moves" in doc and "action" in doc:
            raise ParseError("token system document gives both 'action' and 'moves'")
        kind = "moves" if "moves" in doc else "action"
        try:
            raw_states = doc["states"]
            raw_tokens = doc["tokens"]
            table = doc[kind]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"token system document missing field: {exc}") from None
        states = tuple(str(s) for s in json_list(raw_states, "token system 'states'"))
        tokens = []
        reverse: dict[str, str] = {}
        for entry in json_list(raw_tokens, "token system 'tokens'"):
            if isinstance(entry, str):
                tokens.append(entry)
                continue
            try:
                tokens.append(str(entry["id"]))
            except (KeyError, TypeError):
                raise ParseError("token entries need an 'id' field") from None
            if "reverse" in entry:
                reverse[str(entry["id"])] = str(entry["reverse"])
        if reverse and len(reverse) != len(tokens):
            raise ParseError("either every token or no token may declare a reverse")
        if not isinstance(table, dict):
            raise ParseError(f"token system {kind!r} must be a JSON object")
        if not all(isinstance(row, dict) for row in table.values()):
            raise ParseError(f"each {kind} row must be a JSON object")
        try:  # the constructor's one validation walk checks the rows against the tokens
            return cls(states, tuple(tokens), reverse=reverse or None, **{kind: table})
        except InputError as exc:
            raise ParseError(str(exc)) from None


def _index_moves(states, index, tokens, token_set, rows, dense) -> dict[str, list[tuple[int, int]]]:
    """The one validation walk of a token system's action: per token in token
    order, its moves as (state index, target index) pairs in state order.

    ``rows`` holds dense rows (``dense``) or moves.  A dense row must map
    exactly the states; a moves row must map states to other states, and a
    token with no moves row moves nothing.  Both ends of every move must be
    states, and each token must move some state.
    """
    if dense:
        if rows.keys() != token_set:
            raise InputError("action table must have exactly one row per token")
    else:
        for t in rows:
            if t not in token_set:
                raise InputError(f"moves given for undeclared token {t!r}")
    n = len(states)
    index_moves: dict[str, list[tuple[int, int]]] = {}
    for t in tokens:
        if dense:
            row = rows[t]
            if len(row) != n:
                raise InputError(f"action of token {t!r} is not total")
            try:
                ms = [(index[s], index[row[s]]) for s in states if row[s] != s]
            except (KeyError, TypeError):  # TypeError: an unhashable entry
                moves = ((s, v) for s in states if (v := row.get(s)) != s)
                raise _row_error(t, moves, index, dense) from None
        else:
            row = rows.get(t, {})
            try:
                ms = [(index[s], index[v]) for s, v in row.items() if v != s]
            except (KeyError, TypeError):
                ms = None
            if ms is None or len(ms) != len(row):
                raise _row_error(t, row.items(), index, dense)
            ms.sort()
        if not ms:
            raise InputError(f"token {t!r} acts as the identity on every state")
        index_moves[t] = ms
    return index_moves


def _row_error(t, moves, index, dense) -> InputError:
    """The first defect among token t's moves, as (state, image) pairs in the
    order the walk met them; a dense row gives None for a missing state."""
    for s, v in moves:
        if dense and v is None:
            return InputError(f"action of token {t!r} missing state {s!r}")
        if not _is_key(s, index):
            return InputError(f"a move of token {t!r} starts outside the state set")
        if not _is_key(v, index):
            return InputError(f"action of token {t!r} leaves the state set")
        if v == s:
            return InputError(f"token {t!r} moves state {s!r} to itself")
    # unreachable: the walk fails only on a move with one of the defects above
    return InputError(f"action of token {t!r} leaves the state set")


def _is_key(x, index) -> bool:
    try:
        return x in index
    except TypeError:  # an unhashable entry
        return False


def _steps(ts: TokenSystem, state: str, message: Message) -> Iterator[tuple[str, str]]:
    """Yield (before, after) per token of a message run from a state, lazily.
    A token's moves are in state order, so its image of a state is found by
    bisection; a state it does not move is fixed."""
    if not ts.has_state(state):
        raise InputError(f"unknown state id {state!r}")
    states, index_moves = ts.states, ts._index_moves
    i = ts._index[state]
    for t in message:
        ms = index_moves.get(t)
        if ms is None:
            raise InputError(f"unknown token id {t!r}")
        k = bisect_left(ms, (i,))
        j = ms[k][1] if k < len(ms) and ms[k][0] == i else i
        yield states[i], states[j]
        i = j


def apply(ts: TokenSystem, state: str, message: Message) -> str:
    """Run a message left to right from a state; the empty message is the identity."""
    cur = state
    for _, cur in _steps(ts, state, message):
        pass
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
    return all(before != after for before, after in _steps(ts, state, message))


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
    steps = [(t, dict(ts.moves(t))) for t in ts.tokens]
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
        for t, step in steps:
            v = step.get(cur)
            if v is None or rev[t] in used:
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
    When M3 fails the labels are no potentials to read M4 off, so M4 is
    skipped, and M2 too unless the system is disconnected.  ``bound`` is the bound
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


# the checks that do not depend on the system, shared by every report
_ALL_HOLD = tuple(AxiomCheck(a, HOLDS) for a in AXIOMS)
_SKIPPED_AFTER_M1 = tuple(
    AxiomCheck(a, SKIPPED, note="not evaluated: M1 failed, no usable reverse pairing")
    for a in ("M2", "M3", "M4")
)


def reverse_defect(ts: TokenSystem) -> dict | None:
    """Exact M1 check; None when every token's declared reverse is its unique one.

    A token u is a reverse candidate for t when the moves of u are exactly
    the inverted moves of t (fixed points are unconstrained).  M1 demands a
    declared pairing that matches a unique candidate per token.  It is read
    in one pass over the move index in token order: the declared reverse
    must hold exactly the token's moves inverted, sorted as the index keeps
    them, and must be the only token that does.  Tokens with equal moves are
    found once, after the first token passes.  The first defect is the
    witness, with its candidates in token order.
    """
    if ts.reverse is None:
        return {"axiom": "M1", "kind": "missing-reverse-pairing"}
    moves, reverse = ts._index_moves, ts.reverse
    twins = None  # token -> every token with its moves, for tokens that have a twin
    for t, ms in moves.items():
        declared = reverse[t]
        if moves[declared] != sorted([(j, i) for i, j in ms]):
            return _declared_breach(ts, t, declared)
        if twins is None:
            twins = _twins(moves)
        if declared in twins:
            return {"axiom": "M1", "kind": "ambiguous-reverse", "token": t, "candidates": twins[declared]}
    return None


def _twins(moves) -> dict[str, list[str]]:
    """Each token that shares its moves with another, mapped to all the tokens
    with those moves, in token order."""
    by_moves: dict[tuple, list[str]] = {}
    for t, ms in moves.items():
        by_moves.setdefault(tuple(ms), []).append(t)
    return {t: group for group in by_moves.values() if len(group) > 1 for t in group}


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

    Every verdict is read off ``tokenmedia.represent.decide_medium``: on a
    medium M1-M4 hold outright; an M1 witness fails M1; on any other system
    M1 holds and M2-M4 are read by ``represent._axiom_witnesses`` off the
    threshold labels the decision keeps; no message is enumerated.  When M1
    fails, M2-M4 are skipped; when M3 fails, M4 is skipped, and so is M2
    unless the system is disconnected.  ``bound`` changes no verdict: it is
    validated (at least 1), defaults to twice the token count and is
    reported, so that callers passing it keep working.
    """
    from .represent import _axiom_witnesses, decide_medium

    if bound is None:
        bound = max(1, 2 * len(ts.tokens))
    if bound < 1:
        raise InputError("bound must be at least 1")
    decision = decide_medium(ts)
    if decision.is_medium:
        return AxiomReport(_ALL_HOLD, bound)
    if decision.witness["axiom"] == "M1":
        return AxiomReport((AxiomCheck("M1", FAILS, decision.witness),) + _SKIPPED_AFTER_M1, bound)
    found = _axiom_witnesses(ts, decision.potentials)
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
    old = ts.states
    states = tuple(s for s in old if s in keep_set)
    kept = [s in keep_set for s in old]
    first: dict[tuple[tuple[int, int], ...], str] = {}  # each distinct reduced move tuple -> its first token
    for t, ms in ts._index_moves.items():
        sig = tuple((i, j) for i, j in ms if kept[i] and kept[j])
        if sig:
            first.setdefault(sig, t)
    moves = {t: {old[i]: old[j] for i, j in sig} for sig, t in first.items()}
    # the inverted moves, sorted as the index keeps them, name the reverse
    reverse = {t: first.get(tuple(sorted((j, i) for i, j in sig))) for sig, t in first.items()}
    if any(r is None or r == t for t, r in reverse.items()):
        reverse = None  # some token has no reverse, or is its own
    return TokenSystem(states, tuple(moves), reverse=reverse, moves=moves)
