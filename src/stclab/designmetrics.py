"""Code-design criteria over codeword pairs and trellis error events.

For a pair of codewords the signal matrix is Cs = (x1 - x2)(x1 - x2)^H.
Three figures of merit drive the comparisons:

* rank of Cs -- the diversity advantage,
* product measure -- geometric mean of the nonzero eigenvalues of Cs, the
  coding-gain criterion for small receive arrays,
* euclidean -- arithmetic mean of the eigenvalues (trace/lt), the design
  target when the receive array is large.
"""

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .demod import ML_SLICE_ELEMENTS
from .errors import InputError, NumericError
from .mathcore import RANK_TOL
from .stcodes import BlockCodebook, TrellisCode, rounded_row_bytes

EVENT_CAP = 10**6
# Largest codeword-pair count codebook_report enumerates: about 15 s at
# 1.0-1.6 us per pair (2-core x86 host), where golden 16QAM's 2.1e9 pairs
# would take 40-60 min.
PAIR_CAP = 10**7
# Step codes of live alternative paths that trellis_error_events extends at
# once; the frontier never holds more than about max_depth times this.
FRONTIER_ELEMENTS = 2**16
# Deepest error-event search: the events held until EVENT_CAP stops a search
# take up to EVENT_CAP x max_depth step codes (63 MB traced at this depth).
DEPTH_CAP = 64


class PairMetrics(NamedTuple):
    rank: int
    product_measure: float
    euclidean: float


@dataclass(frozen=True)
class DesignMetricsReport:
    """Worst-case pair metrics over a codebook.

    The small-array ranking is lexicographic (rank, then product measure);
    the large-array ranking minimizes the euclidean metric.  Worst pairs are
    reported for both paradigms as codeword index tuples.
    """

    min_rank: int
    min_product_measure_at_min_rank: float
    min_euclidean: float
    worst_pair_rank_product: tuple
    worst_pair_euclidean: tuple
    n_pairs: int


def _eig_metrics(eig, lt):
    """Rank, product measure and euclidean metric per row of eigenvalues.

    ``eig`` is (n, lt) in ascending order, as eigvalsh gives it.  Values are
    clipped at 0; those above ``RANK_TOL`` times the row's largest count
    toward the rank, and the product measure is their geometric mean.  A row
    whose largest value is not positive gets rank 0 and product measure 0.
    """
    eig = np.maximum(eig, 0.0)
    top = eig.max(axis=1)
    euclidean = eig.sum(axis=1) / lt
    rank = np.count_nonzero(eig > (RANK_TOL * top)[:, None], axis=1)
    product = np.zeros(eig.shape[0])
    for r in np.unique(rank[rank > 0]):
        rows = rank == r
        # the counted values are the last r of each row; averaging exactly
        # those keeps the summation order of a 1-D mean over them
        product[rows] = np.exp(np.log(eig[rows, lt - r :]).sum(axis=1) / r)
    return rank, product, euclidean


def _worst(rank, product, euclidean):
    """Indices of the first minimal (rank, product) and first minimal euclidean."""
    at_min_rank = np.flatnonzero(rank == rank.min())
    return at_min_rank[np.argmin(product[at_min_rank])], np.argmin(euclidean)


def pair_metrics(x1, x2):
    """Rank, product measure and euclidean metric of one codeword pair.

    Identical codewords give rank 0 and, by convention, product measure 0.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    if x1.shape != x2.shape or x1.ndim != 2:
        raise InputError(f"codeword shapes differ: {x1.shape} vs {x2.shape}")
    rank, product, euclidean = _eig_metrics(
        _batched_pair_eigs((x1 - x2)[None]), x1.shape[0]
    )
    return PairMetrics(int(rank[0]), float(product[0]), float(euclidean[0]))


def _batched_pair_eigs(diffs):
    """Eigenvalues of d d^H for a (n, lt, n_uses) stack of differences."""
    cs = np.einsum("nik,njk->nij", diffs, diffs.conj())
    # enforce exact Hermitian symmetry before the batched solver
    cs = 0.5 * (cs + np.conj(np.swapaxes(cs, -1, -2)))
    return np.linalg.eigvalsh(cs)


def codebook_report(cb: BlockCodebook):
    """Exhaustive worst-case metrics over all unordered codeword pairs.

    Pairs (i, j), i < j, are taken in row-major order, in slices whose
    temporaries hold at most ``ML_SLICE_ELEMENTS`` complex values (the
    exhaustive-ML cap); ties go to the first pair.  Raises InputError,
    before any pair is examined, when the codebook has more than
    ``PAIR_CAP`` pairs.
    """
    cw = cb.codewords
    n, lt, n_uses = cw.shape
    total = n * (n - 1) // 2
    if total > PAIR_CAP:
        raise InputError(
            f"{cb.name} codebook has {total} codeword pairs, more than the"
            f" {PAIR_CAP} an exhaustive report enumerates"
        )
    if total == 0:
        raise InputError("codebook_report needs a codebook of size >= 2")
    # flat index of pair (i, i + 1): row i holds the n - 1 - i pairs after it
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    step = max(1, ML_SLICE_ELEMENTS // (lt * max(lt, n_uses)))
    best_key = best_euc = None
    for p0 in range(0, total, step):
        p = np.arange(p0, min(p0 + step, total))
        i = np.searchsorted(row_start, p, side="right") - 1
        j = p - row_start[i] + i + 1
        rank, product, euclidean = _eig_metrics(_batched_pair_eigs(cw[j] - cw[i]), lt)
        k, e = _worst(rank, product, euclidean)
        key = (int(rank[k]), float(product[k]))
        if best_key is None or key < best_key:
            best_key, best_pair = key, (int(i[k]), int(j[k]))
        if best_euc is None or euclidean[e] < best_euc:
            best_euc, best_euc_pair = float(euclidean[e]), (int(i[e]), int(j[e]))
    return DesignMetricsReport(
        min_rank=best_key[0],
        min_product_measure_at_min_rank=best_key[1],
        min_euclidean=best_euc,
        worst_pair_rank_product=best_pair,
        worst_pair_euclidean=best_euc_pair,
        n_pairs=total,
    )


def trellis_error_events(code: TrellisCode, max_depth=10, all_reference_states=False):
    """Enumerate error events on the pair-state trellis.

    An event is an alternative path that diverges from the reference path at
    its first step and remerges with it within ``max_depth`` steps.  The
    reference is the all-zero-input path from state 0 (geometric uniformity
    assumption); with ``all_reference_states`` the zero-input reference path
    is started from every state, for codes without that symmetry.

    Returns a list of (difference matrix, PairMetrics), deduplicated on
    identical difference matrices (rounded to 12 digits) with the first
    occurrence kept.  Events are ordered by start state, then by input
    sequence, lexicographically descending.  Raises NumericError when more
    than ``EVENT_CAP`` events are generated before deduplication, and
    InputError, before any search, when ``max_depth`` exceeds ``DEPTH_CAP``.
    """
    if not isinstance(max_depth, Integral):
        raise InputError(f"max_depth={max_depth} is not an integer")
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    if max_depth > DEPTH_CAP:
        raise InputError(f"max_depth must be <= {DEPTH_CAP}")
    n_states, n_inputs = code.n_states, code.n_inputs
    per_state = n_states * n_inputs
    flat_next = code.next_state.ravel()
    # ref[s0, d]: state of the zero-input reference path from s0 after d steps
    ref = np.zeros((n_states if all_reference_states else 1, max_depth + 1), int)
    ref[:, 0] = np.arange(ref.shape[0])
    for d in range(max_depth):
        ref[:, d + 1] = flat_next[ref[:, d] * n_inputs]
    # A live path is one code per step taken, state * n_inputs + input for
    # the alternative path's state before the step, so the first code gives
    # the start state and the last one, through flat_next, the current
    # alternative state.  Chunks of paths go on a last-in-first-out stack,
    # which holds at most about max_depth * FRONTIER_ELEMENTS codes.
    code_type = np.min_scalar_type(per_state - 1)
    chunk = max(1, FRONTIER_ELEMENTS // (n_inputs * max_depth))
    stack = []

    def push(steps):
        stack.extend(steps[k : k + chunk] for k in range(0, len(steps), chunk))

    start = np.arange(ref.shape[0] * n_inputs, dtype=code_type)
    push(start[start % n_inputs > 0, None])
    found = [[] for _ in range(max_depth + 1)]
    n_events = 0
    while stack:
        steps = stack.pop()
        depth = steps.shape[1]
        alt = flat_next[steps[:, -1]]
        merged = alt == ref[steps[:, 0] // n_inputs, depth]
        n_events += np.count_nonzero(merged)
        if n_events > EVENT_CAP:
            raise NumericError(
                f"more than {EVENT_CAP} error events before depth {max_depth}"
            )
        if merged.any():
            found[depth].append(steps[merged])
        if depth == max_depth:
            continue
        alt, steps = alt[~merged], steps[~merged]
        codes = (alt[:, None] * n_inputs + np.arange(n_inputs)).astype(code_type)
        push(np.hstack([np.repeat(steps, n_inputs, axis=0), codes.reshape(-1, 1)]))
    groups = [(d, np.concatenate(f)) for d, f in enumerate(found) if f]
    if not groups:
        return []
    steps = np.concatenate([np.pad(g, ((0, 0), (0, max_depth - d))) for d, g in groups])
    event_depth = np.repeat([d for d, _ in groups], [len(g) for _, g in groups])
    # Order of the depth-first walk that pushes inputs in ascending order:
    # start state, then input sequence descending.  No event's sequence is a
    # prefix of another's, so the padding of short ones never decides.
    order = np.lexsort(
        np.vstack([(n_inputs - 1 - steps % n_inputs).T[::-1], steps[:, 0] // n_inputs])
    )
    steps, event_depth = steps[order], event_depth[order]
    points = code.constellation.points
    scale = 1.0 / np.sqrt(code.lt)
    events = [None] * len(order)
    for d, _ in groups:
        at = np.flatnonzero(event_depth == d)
        g = steps[at, :d]
        # columns only for the (reference state, step code) pairs in use;
        # equal rounded columns get one class, and equal class rows are equal
        # rounded matrices
        pairs = ref[g[:, :1] // n_inputs, np.arange(d)] * per_state + g
        used, col = np.unique(pairs, return_inverse=True)
        r, a = np.divmod(used, per_state)
        a, u = np.divmod(a, n_inputs)
        cols = (points[code.out_idx[r, 0]] - points[code.out_idx[a, u]]) * scale
        _, cls = np.unique(rounded_row_bytes(cols), axis=0, return_inverse=True)
        col = col.reshape(g.shape)
        _, first = np.unique(cls.ravel()[col], axis=0, return_index=True)
        diffs = cols[col[first]].transpose(0, 2, 1)
        metrics = _eig_metrics(_batched_pair_eigs(diffs), code.lt)
        metrics = zip(*(v.tolist() for v in metrics))
        for k, diff, m in zip(at[first].tolist(), diffs, metrics):
            events[k] = (diff, PairMetrics(*m))
    return [event for event in events if event is not None]


def event_report(events):
    """Worst-case summary over a trellis error-event list."""
    if not events:
        raise InputError("no error events to summarize")
    rank, product, euclidean = np.array([pm for _, pm in events]).T
    k, e = _worst(rank, product, euclidean)
    return DesignMetricsReport(
        min_rank=int(rank[k]),
        min_product_measure_at_min_rank=float(product[k]),
        min_euclidean=float(euclidean[e]),
        worst_pair_rank_product=(),
        worst_pair_euclidean=(),
        n_pairs=len(events),
    )
