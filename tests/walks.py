"""The bounded message walks that ``check_axioms`` ran on non-media, kept as
test oracles.

``bounded_report`` is the bounded falsifier as it stood before token-pair
potentials replaced it: M1 and M2 exact, M3 and M4 by memoized enumeration
of the messages up to a length bound, with "holds-up-to-bound" as their
positive verdict.  Its failure verdicts are exact.  Every violation the
potentials find has a witness of at most 2S - 1 tokens (S states: a move
and two tree paths), so at bound 2S + 1 its positive verdicts are exact
too wherever the potentials evaluate an axiom.  ``tests/test_tokens.py``
checks the memoized walks against the plain enumeration.
"""

from collections import deque

from tokenmedia.tokens import FAILS, HOLDS, SKIPPED, AxiomCheck, AxiomReport, TokenSystem, reverse_defect

HOLDS_UP_TO_BOUND = "holds-up-to-bound"


def passes(report: AxiomReport) -> bool:
    """True iff every verdict of a bounded report is "holds" or "holds-up-to-bound"."""
    return all(c.verdict in (HOLDS, HOLDS_UP_TO_BOUND) for c in report.checks)


def bounded_report(ts: TokenSystem, bound: int) -> AxiomReport:
    """The bounded falsifier, with no look at the decision.

    M1 and M2 are exact; M3 and M4 enumerate messages up to ``bound``.  The
    enumeration is memoized: a subtree whose outcome depends only on its
    current state, its token bookkeeping and the length left is not walked
    again to the same or a smaller depth, so the verdicts and the first
    witness found are those of the plain enumeration.  Failure witnesses
    replay through ``apply``.
    """
    defect = reverse_defect(ts)
    if defect is not None:
        skipped = tuple(
            AxiomCheck(a, SKIPPED, note="not evaluated: M1 failed, no usable reverse pairing")
            for a in ("M2", "M3", "M4")
        )
        return AxiomReport((AxiomCheck("M1", FAILS, defect),) + skipped, bound)
    rev = ts.reverse
    m1 = AxiomCheck("M1", HOLDS)
    w2 = violates_m2(ts, rev)
    m2 = AxiomCheck("M2", FAILS, w2) if w2 else AxiomCheck("M2", HOLDS)
    w3 = violates_m3(ts, rev, bound)
    w4 = violates_m4(ts, rev, bound)
    m3 = AxiomCheck("M3", FAILS, w3) if w3 else AxiomCheck("M3", HOLDS_UP_TO_BOUND)
    m4 = AxiomCheck("M4", FAILS, w4) if w4 else AxiomCheck("M4", HOLDS_UP_TO_BOUND)
    return AxiomReport((m1, m2, m3, m4), bound)


def out_moves(ts):
    """Each state's effective moves (token, image), in token order, read off
    the move index."""
    states = ts.states
    out: dict[str, list[tuple[str, str]]] = {s: [] for s in states}
    for t, ms in ts._index_moves.items():
        for i, j in ms:
            out[states[i]].append((t, states[j]))
    return out


def violates_m2(ts, rev):
    """The first pair (s, v), in state order, joined by no straight message:
    one breadth-first search over (state, used tokens) per source."""
    states = ts.states
    bits = {}
    for t in ts.tokens:
        if t not in bits:
            bits[t], bits[rev[t]] = 1 << len(bits), 1 << (len(bits) + 1)
    out = {s: [(bits[t], bits[rev[t]], v) for t, v in ms] for s, ms in out_moves(ts).items()}
    for s in states:
        seen = {(s, 0)}
        reached = {s}
        queue = deque(seen)
        while queue and len(reached) < len(states):
            cur, used = queue.popleft()
            for bit, rbit, v in out[cur]:
                if used & rbit:
                    continue
                node = (v, used | bit)
                if node not in seen:
                    seen.add(node)
                    reached.add(v)
                    queue.append(node)
        for v in states:
            if v not in reached:
                return {"axiom": "M2", "source": s, "target": v}
    return None


def violates_m3(ts, rev, bound):
    tokens = ts.tokens
    index = {t: i for i, t in enumerate(tokens)}
    canon = {t: (t if index[t] < index[rev[t]] else rev[t]) for t in tokens}
    step = {t: (1 if canon[t] == t else -1) for t in tokens}
    out = out_moves(ts)
    for s0 in ts.states:
        # (state, net content) -> most message length left searched without a witness
        explored: dict = {}
        path: list[str] = []
        diff: dict[str, int] = {}  # the nonzero net counts per reverse pair
        stack = [(None, iter(out[s0]))]
        while stack:
            key, todo = stack[-1]
            for t, v in todo:
                pair = canon[t]
                n = diff.pop(pair, 0) + step[t]
                if n:
                    diff[pair] = n
                path.append(t)
                left = bound - len(path)
                node = (v, frozenset(diff.items()))
                if explored.get(node, -1) < left:
                    break
                undo_step(path, diff, canon, step)
            else:
                stack.pop()
                if key is not None:
                    explored[key] = bound - len(path)
                    undo_step(path, diff, canon, step)
                continue
            if (v == s0) == bool(diff):
                if diff:
                    return {
                        "axiom": "M3",
                        "kind": "ineffective-but-not-vacuous",
                        "state": s0,
                        "message": list(path),
                    }
                return {
                    "axiom": "M3",
                    "kind": "vacuous-but-effective",
                    "state": s0,
                    "message": list(path),
                    "end": v,
                }
            stack.append((node, iter(out[v] if left else ())))
    return None


def undo_step(path, diff, canon, step):
    t = path.pop()
    pair = canon[t]
    n = diff.pop(pair, 0) - step[t]
    if n:
        diff[pair] = n


def violates_m4(ts, rev, bound):
    out = out_moves(ts)
    # first straight message seen per (produced state, content token)
    record: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
    # (state, used tokens) -> most message length left searched without a
    # witness, shared by every start: a walk it prunes would only find
    # records already there, and any record that could trigger in it would
    # have triggered when it was added
    explored: dict = {}
    for s0 in ts.states:
        path: list[str] = []
        used: set[str] = set()
        stack = [(None, iter(out[s0]), False)]
        while stack:
            key, todo, fresh = stack[-1]
            for t, v in todo:
                if rev[t] in used:
                    continue
                added = t not in used
                used.add(t)
                path.append(t)
                left = bound - len(path)
                node = (v, frozenset(used))
                if explored.get(node, -1) < left:
                    break
                path.pop()
                if added:
                    used.discard(t)
            else:
                stack.pop()
                if key is not None:
                    explored[key] = bound - len(path)
                    t = path.pop()
                    if fresh:
                        used.discard(t)
                continue
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
            stack.append((node, iter(out[v] if left else ()), added))
    return None

