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

import numpy as np

from .errors import DepthTooLarge, InvalidCount, ShapeMismatch
from .mathcore import RANK_TOL, hermitian_eigenvalues
from .stcodes import BlockCodebook, TrellisCode

EVENT_CAP = 10**6
# Largest codeword-pair count codebook_report enumerates: 3-4 min at about
# 20 us per pair, where golden 16QAM's 2.1e9 pairs would take half a day.
PAIR_CAP = 10**7


@dataclass(frozen=True)
class PairMetrics:
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


def _metrics_from_eigenvalues(eigs, lt, rel_tol):
    eigs = np.maximum(np.real(eigs), 0.0)
    top = eigs.max() if eigs.size else 0.0
    euclidean = float(eigs.sum() / lt)
    if top <= 0.0:
        return 0, 0.0, euclidean
    nonzero = eigs[eigs > rel_tol * top]
    rank = int(nonzero.size)
    product = float(np.exp(np.mean(np.log(nonzero))))
    return rank, product, euclidean


def pair_metrics(x1, x2, rel_tol=RANK_TOL):
    """Rank, product measure and euclidean metric of one codeword pair.

    Identical codewords give rank 0 and, by convention, product measure 0.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    if x1.shape != x2.shape or x1.ndim != 2:
        raise ShapeMismatch(f"codeword shapes differ: {x1.shape} vs {x2.shape}")
    d = x1 - x2
    cs = d @ d.conj().T
    eigs = hermitian_eigenvalues(cs)
    rank, product, euclidean = _metrics_from_eigenvalues(eigs, x1.shape[0], rel_tol)
    return PairMetrics(rank=rank, product_measure=product, euclidean=euclidean)


def _batched_pair_eigs(diffs):
    """Eigenvalues of d d^H for a (n, lt, n_uses) stack of differences."""
    cs = np.einsum("nik,njk->nij", diffs, diffs.conj())
    # enforce exact Hermitian symmetry before the batched solver
    cs = 0.5 * (cs + np.conj(np.swapaxes(cs, -1, -2)))
    return np.linalg.eigvalsh(cs)


def codebook_report(cb: BlockCodebook, rel_tol=RANK_TOL):
    """Exhaustive worst-case metrics over all unordered codeword pairs.

    Raises InvalidCount, before any pair is examined, when the codebook has
    more than ``PAIR_CAP`` pairs.
    """
    cw = cb.codewords
    n, lt = cw.shape[0], cw.shape[1]
    total = n * (n - 1) // 2
    if total > PAIR_CAP:
        raise InvalidCount(
            f"{cb.name} codebook has {total} codeword pairs, more than the"
            f" {PAIR_CAP} an exhaustive report enumerates"
        )
    best_rank_key = None
    best_rank_pair = None
    best_euc = None
    best_euc_pair = None
    n_pairs = 0
    for i in range(n - 1):
        diffs = cw[i + 1 :] - cw[i]
        eig = _batched_pair_eigs(diffs)
        eig = np.maximum(eig, 0.0)
        top = eig.max(axis=1)
        n_pairs += diffs.shape[0]
        for off in range(diffs.shape[0]):
            rank, product, euclidean = _metrics_from_eigenvalues(
                eig[off], lt, rel_tol
            )
            j = i + 1 + off
            key = (rank, product)
            if best_rank_key is None or key < best_rank_key:
                best_rank_key = key
                best_rank_pair = (i, j)
            if best_euc is None or euclidean < best_euc:
                best_euc = euclidean
                best_euc_pair = (i, j)
    if best_rank_key is None:
        raise ValueError("codebook_report needs a codebook of size >= 2")
    return DesignMetricsReport(
        min_rank=best_rank_key[0],
        min_product_measure_at_min_rank=best_rank_key[1],
        min_euclidean=best_euc,
        worst_pair_rank_product=best_rank_pair,
        worst_pair_euclidean=best_euc_pair,
        n_pairs=n_pairs,
    )


def trellis_error_events(
    code: TrellisCode,
    max_depth=10,
    event_cap=EVENT_CAP,
    all_reference_states=False,
    rel_tol=RANK_TOL,
):
    """Enumerate error events on the pair-state trellis.

    An event is an alternative path that diverges from the reference path at
    its first step and remerges with it within ``max_depth`` steps.  The
    reference is the all-zero-input path from state 0 (geometric uniformity
    assumption); with ``all_reference_states`` the zero-input reference path
    is started from every state, for codes without that symmetry.

    Returns a list of (difference matrix, PairMetrics), deduplicated on
    identical difference matrices.  Raises DepthTooLarge when more than
    ``event_cap`` events are generated before deduplication.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    points = code.constellation.points
    scale = 1.0 / np.sqrt(code.lt)
    n_inputs = code.n_inputs
    start_states = range(code.n_states) if all_reference_states else (0,)
    raw = {}
    n_events = 0
    for s0 in start_states:
        # reference path: zero input from s0 at every step
        ref_states = [s0]
        for _ in range(max_depth):
            ref_states.append(int(code.next_state[ref_states[-1], 0]))
        # stack holds (depth, alt_state, diff columns so far)
        stack = []
        for u in range(1, n_inputs):
            ref_out = points[code.out_idx[s0, 0]]
            alt_out = points[code.out_idx[s0, u]]
            col = (ref_out - alt_out) * scale
            stack.append((1, int(code.next_state[s0, u]), [col]))
        while stack:
            depth, alt_state, cols = stack.pop()
            if alt_state == ref_states[depth]:
                n_events += 1
                if n_events > event_cap:
                    raise DepthTooLarge(
                        f"more than {event_cap} error events before depth"
                        f" {max_depth}"
                    )
                diff = np.array(cols).T
                key = (np.round(diff, 12) + (0.0 + 0.0j)).tobytes()
                if key not in raw:
                    raw[key] = diff
                continue
            if depth == max_depth:
                continue
            ref_state = ref_states[depth]
            ref_out = points[code.out_idx[ref_state, 0]]
            for u in range(n_inputs):
                alt_out = points[code.out_idx[alt_state, u]]
                col = (ref_out - alt_out) * scale
                stack.append(
                    (depth + 1, int(code.next_state[alt_state, u]), cols + [col])
                )
    events = []
    for diff in raw.values():
        eigs = _batched_pair_eigs(diff[None])[0]
        rank, product, euclidean = _metrics_from_eigenvalues(
            eigs, code.lt, rel_tol
        )
        events.append(
            (diff, PairMetrics(rank=rank, product_measure=product, euclidean=euclidean))
        )
    return events


def event_report(events):
    """Worst-case summary over a trellis error-event list."""
    if not events:
        raise ValueError("no error events to summarize")
    best_key = None
    best_euc = None
    for _, pm in events:
        key = (pm.rank, pm.product_measure)
        if best_key is None or key < best_key:
            best_key = key
        if best_euc is None or pm.euclidean < best_euc:
            best_euc = pm.euclidean
    return DesignMetricsReport(
        min_rank=best_key[0],
        min_product_measure_at_min_rank=best_key[1],
        min_euclidean=best_euc,
        worst_pair_rank_product=(),
        worst_pair_euclidean=(),
        n_pairs=len(events),
    )
