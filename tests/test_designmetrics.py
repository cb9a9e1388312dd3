"""Tests for rank / product-measure / euclidean pair metrics, codebook
reports, and trellis error-event enumeration."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stclab import designmetrics
from stclab.designmetrics import (
    DesignMetricsReport,
    PairMetrics,
    codebook_report,
    event_report,
    pair_metrics,
    trellis_error_events,
)
from stclab.errors import InputError, NumericError
from stclab.mathcore import QAM16, QPSK, RANK_TOL
from stclab.stcodes import (
    BlockCodebook,
    alamouti_codebook,
    golden_codebook,
    load_packaged_trellis,
    load_trellis,
    spatial_multiplex_codebook,
)


def report_oracle(cb):
    """Slow double-loop reference for codebook_report."""
    lt = cb.codewords.shape[1]
    best = None
    min_euc = None
    n = 0
    for i in range(cb.size):
        for j in range(i + 1, cb.size):
            n += 1
            d = cb.codewords[i] - cb.codewords[j]
            cs = d @ d.conj().T
            eigs = np.linalg.eigvalsh(cs)
            thr = 1e-9 * eigs.max()
            nz = eigs[eigs > thr]
            rank = nz.size
            product = float(np.exp(np.mean(np.log(nz)))) if rank else 0.0
            euc = float(eigs.sum() / lt)
            key = (rank, product)
            if best is None or key < best:
                best = key
            if min_euc is None or euc < min_euc:
                min_euc = euc
    return best[0], best[1], min_euc, n


class TestPairMetrics:
    def test_identical_codewords(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        pm = pair_metrics(x, x)
        assert pm == PairMetrics(rank=0, product_measure=0.0, euclidean=0.0)

    def test_scaled_identity_difference(self):
        x1 = np.sqrt(2.0) * np.eye(2)
        x2 = np.zeros((2, 2))
        pm = pair_metrics(x1, x2)
        assert pm.rank == 2
        assert_allclose(pm.product_measure, 2.0, atol=1e-12)
        assert_allclose(pm.euclidean, 2.0, atol=1e-12)

    def test_rank_one_difference(self):
        # difference [[1,1],[1,1]]: eigenvalues of Cs are {4, 0}
        pm = pair_metrics(np.ones((2, 2)), np.zeros((2, 2)))
        assert pm.rank == 1
        assert_allclose(pm.product_measure, 4.0, atol=1e-12)
        assert_allclose(pm.euclidean, 2.0, atol=1e-12)

    def test_tall_codewords(self):
        x1 = np.array([[1.0], [1.0], [0.0]])
        pm = pair_metrics(x1, np.zeros((3, 1)))
        assert pm.rank == 1
        assert_allclose(pm.product_measure, 2.0)
        assert_allclose(pm.euclidean, 2.0 / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            pair_metrics(np.eye(2), np.zeros((2, 3)))

    def test_left_unitary_invariance(self):
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a, b = pair_metrics(x1, x2), pair_metrics(q @ x1, q @ x2)
        assert a.rank == b.rank
        assert_allclose(a.product_measure, b.product_measure, rtol=1e-10)
        assert_allclose(a.euclidean, b.euclidean, rtol=1e-10)

    def test_right_unitary_invariance(self):
        rng = np.random.default_rng(12)
        x1 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a, b = pair_metrics(x1, np.zeros_like(x1)), pair_metrics(x1 @ q, np.zeros_like(x1))
        assert a.rank == b.rank
        assert_allclose(a.product_measure, b.product_measure, rtol=1e-10)
        assert_allclose(a.euclidean, b.euclidean, rtol=1e-10)

    def test_product_equals_abs_det_for_full_rank_2x2(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            pm = pair_metrics(d, np.zeros((2, 2)))
            assert pm.rank == 2
            assert_allclose(pm.product_measure, abs(np.linalg.det(d)), rtol=1e-9)

    def test_euclidean_is_normalized_squared_distance(self):
        rng = np.random.default_rng(14)
        x1 = rng.normal(size=(3, 5))
        x2 = rng.normal(size=(3, 5))
        pm = pair_metrics(x1, x2)
        assert_allclose(pm.euclidean, np.sum(np.abs(x1 - x2) ** 2) / 3, rtol=1e-12)


class TestCodebookReport:
    def test_alamouti_full_diversity(self):
        rep = codebook_report(alamouti_codebook(QPSK))
        assert rep.min_rank == 2
        assert rep.n_pairs == 120
        assert_allclose(rep.min_product_measure_at_min_rank, 1.0, atol=1e-12)
        assert_allclose(rep.min_euclidean, 1.0, atol=1e-12)

    def test_spatial_multiplex_rank_one(self):
        rep = codebook_report(spatial_multiplex_codebook(QPSK, lt=2))
        assert rep.min_rank == 1
        assert rep.n_pairs == 120

    def test_golden_full_diversity(self):
        rep = codebook_report(golden_codebook(QPSK))
        assert rep.min_rank == 2
        assert rep.n_pairs == 256 * 255 // 2
        # product measure of a full-rank 2x2 pair is |det| of the difference
        assert_allclose(rep.min_product_measure_at_min_rank, 1 / np.sqrt(5.0), atol=1e-12)

    def test_matches_double_loop_oracle_alamouti(self):
        cb = alamouti_codebook(QPSK)
        rep = codebook_report(cb)
        rank, product, euc, n = report_oracle(cb)
        assert rep.min_rank == rank
        assert_allclose(rep.min_product_measure_at_min_rank, product, rtol=1e-10)
        assert_allclose(rep.min_euclidean, euc, rtol=1e-10)
        assert rep.n_pairs == n

    def test_matches_double_loop_oracle_golden_subset(self):
        full = golden_codebook(QPSK)
        cb = BlockCodebook("golden_head", full.codewords[:32], 5)
        rep = codebook_report(cb)
        rank, product, euc, n = report_oracle(cb)
        assert rep.min_rank == rank
        assert_allclose(rep.min_product_measure_at_min_rank, product, rtol=1e-10)
        assert_allclose(rep.min_euclidean, euc, rtol=1e-10)
        assert rep.n_pairs == n == 32 * 31 // 2

    def test_two_word_codebook_equals_pair_metrics(self):
        cw = np.stack([np.eye(2), np.zeros((2, 2))])
        rep = codebook_report(BlockCodebook("tiny", cw, 1))
        pm = pair_metrics(cw[0], cw[1])
        assert rep.min_rank == pm.rank
        assert_allclose(rep.min_product_measure_at_min_rank, pm.product_measure)
        assert_allclose(rep.min_euclidean, pm.euclidean)
        assert rep.n_pairs == 1

    def test_permutation_invariance(self):
        cb = alamouti_codebook(QPSK)
        rng = np.random.default_rng(15)
        perm = rng.permutation(cb.size)
        shuffled = BlockCodebook("shuffled", cb.codewords[perm], cb.bits_per_codeword)
        a, b = codebook_report(cb), codebook_report(shuffled)
        assert a.min_rank == b.min_rank
        assert_allclose(a.min_product_measure_at_min_rank, b.min_product_measure_at_min_rank)
        assert_allclose(a.min_euclidean, b.min_euclidean)

    @pytest.mark.parametrize(
        "build", [alamouti_codebook, golden_codebook, spatial_multiplex_codebook]
    )
    def test_worst_pair_indices_point_at_worst_pair(self, build):
        # one eigen path: the pair's own metrics are the report's, bit for bit
        cb = build(QPSK)
        rep = codebook_report(cb)
        i, j = rep.worst_pair_rank_product
        pm = pair_metrics(cb.codewords[i], cb.codewords[j])
        assert (pm.rank, pm.product_measure) == (
            rep.min_rank, rep.min_product_measure_at_min_rank
        )
        i, j = rep.worst_pair_euclidean
        pm = pair_metrics(cb.codewords[i], cb.codewords[j])
        assert pm.euclidean == rep.min_euclidean


class TestTrellisErrorEvents:
    def test_delay_diversity_shortest_events(self):
        code = load_packaged_trellis()
        events = trellis_error_events(code, max_depth=2)
        # diverge with one of three nonzero inputs, remerge one step later
        assert len(events) == 3
        for diff, pm in events:
            assert diff.shape == (2, 2)
            assert pm.rank == 2

    def test_depth_three_count(self):
        code = load_packaged_trellis()
        events = trellis_error_events(code, max_depth=3)
        assert len(events) == 3 + 9

    def test_full_transmit_diversity(self):
        code = load_packaged_trellis()
        events = trellis_error_events(code, max_depth=6)
        assert all(pm.rank == 2 for _, pm in events)

    def test_event_report_values(self):
        code = load_packaged_trellis()
        rep = event_report(trellis_error_events(code, max_depth=5))
        assert rep.min_rank == 2
        # worst event: two adjacent-point columns, Cs = I
        assert_allclose(rep.min_product_measure_at_min_rank, 1.0, atol=1e-10)
        assert_allclose(rep.min_euclidean, 1.0, atol=1e-10)

    def test_no_events_below_remerge_depth(self):
        code = load_packaged_trellis()
        assert trellis_error_events(code, max_depth=1) == []

    def test_depth_cap_refused_before_search(self):
        code = load_packaged_trellis()
        with pytest.raises(InputError, match=f"<= {designmetrics.DEPTH_CAP}$"):
            trellis_error_events(code, max_depth=designmetrics.DEPTH_CAP + 1)

    def test_min_euclidean_monotone_in_depth(self):
        code = load_packaged_trellis()
        prev = None
        for depth in (2, 4, 6):
            rep = event_report(trellis_error_events(code, max_depth=depth))
            if prev is not None:
                assert rep.min_euclidean <= prev + 1e-12
            prev = rep.min_euclidean

    def test_all_reference_states_agrees_for_uniform_code(self):
        code = load_packaged_trellis()
        a = event_report(trellis_error_events(code, max_depth=4))
        b = event_report(trellis_error_events(code, max_depth=4, all_reference_states=True))
        assert a.min_rank == b.min_rank
        assert_allclose(a.min_product_measure_at_min_rank, b.min_product_measure_at_min_rank)
        assert_allclose(a.min_euclidean, b.min_euclidean)

    def test_event_cap(self, monkeypatch):
        monkeypatch.setattr(designmetrics, "EVENT_CAP", 100)
        code = load_packaged_trellis()
        with pytest.raises(NumericError):
            trellis_error_events(code, max_depth=10)

    def test_empty_report_rejected(self):
        with pytest.raises(InputError):
            event_report([])


# ---------------------------------------------------------------------------
# The array kernels against copies of the per-pair and per-node loops they
# replaced: every result must be bit for bit the same, in the same order.


def loop_metrics(eigs, lt):
    """Per-pair metric of the replaced loops, on one row of eigenvalues."""
    eigs = np.maximum(np.real(eigs), 0.0)
    top = eigs.max() if eigs.size else 0.0
    euclidean = float(eigs.sum() / lt)
    if top <= 0.0:
        return 0, 0.0, euclidean
    nonzero = eigs[eigs > RANK_TOL * top]
    rank = int(nonzero.size)
    product = float(np.exp(np.mean(np.log(nonzero))))
    return rank, product, euclidean


def loop_codebook_report(cb):
    """Row-by-row pair loop with a strict < merge: first worst pair wins."""
    cw = cb.codewords
    n, lt = cw.shape[0], cw.shape[1]
    best_rank_key = best_rank_pair = best_euc = best_euc_pair = None
    n_pairs = 0
    for i in range(n - 1):
        diffs = cw[i + 1 :] - cw[i]
        eig = np.maximum(designmetrics._batched_pair_eigs(diffs), 0.0)
        n_pairs += diffs.shape[0]
        for off in range(diffs.shape[0]):
            rank, product, euclidean = loop_metrics(eig[off], lt)
            j = i + 1 + off
            if best_rank_key is None or (rank, product) < best_rank_key:
                best_rank_key, best_rank_pair = (rank, product), (i, j)
            if best_euc is None or euclidean < best_euc:
                best_euc, best_euc_pair = euclidean, (i, j)
    return DesignMetricsReport(
        min_rank=best_rank_key[0],
        min_product_measure_at_min_rank=best_rank_key[1],
        min_euclidean=best_euc,
        worst_pair_rank_product=best_rank_pair,
        worst_pair_euclidean=best_euc_pair,
        n_pairs=n_pairs,
    )


def dfs_error_events(code, max_depth, event_cap=10**6, all_reference_states=False):
    """Depth-first walk with a column list per node, deduplicated in order.

    Also returns the event count before deduplication.
    """
    points = code.constellation.points
    scale = 1.0 / np.sqrt(code.lt)
    start_states = range(code.n_states) if all_reference_states else (0,)
    raw = {}
    n_events = 0
    for s0 in start_states:
        ref_states = [s0]
        for _ in range(max_depth):
            ref_states.append(int(code.next_state[ref_states[-1], 0]))
        stack = []
        for u in range(1, code.n_inputs):
            col = (points[code.out_idx[s0, 0]] - points[code.out_idx[s0, u]]) * scale
            stack.append((1, int(code.next_state[s0, u]), [col]))
        while stack:
            depth, alt_state, cols = stack.pop()
            if alt_state == ref_states[depth]:
                n_events += 1
                if n_events > event_cap:
                    raise NumericError("event cap")
                diff = np.array(cols).T
                key = (np.round(diff, 12) + (0.0 + 0.0j)).tobytes()
                if key not in raw:
                    raw[key] = diff
                continue
            if depth == max_depth:
                continue
            ref_out = points[code.out_idx[ref_states[depth], 0]]
            for u in range(code.n_inputs):
                col = (ref_out - points[code.out_idx[alt_state, u]]) * scale
                stack.append(
                    (depth + 1, int(code.next_state[alt_state, u]), cols + [col])
                )
    events = []
    for diff in raw.values():
        eigs = designmetrics._batched_pair_eigs(diff[None])[0]
        events.append((diff, PairMetrics(*loop_metrics(eigs, code.lt))))
    return events, n_events


def assert_same_events(got, want):
    assert len(got) == len(want)
    for (d_got, pm_got), (d_want, pm_want) in zip(got, want):
        assert d_got.shape == d_want.shape
        assert d_got.tobytes() == d_want.tobytes()
        assert pm_got == pm_want


def random_trellis(seed, n_states, bits_per_step, lt, constellation, n_points):
    """A trellis code with random transitions drawing on a few points, so
    distinct paths often give equal difference matrices."""
    rng = np.random.default_rng(seed)
    lines = [f"trellis {n_states} {bits_per_step} {lt} {constellation}"]
    for s in range(n_states):
        for u in range(2**bits_per_step):
            idx = " ".join(str(v) for v in rng.integers(n_points, size=lt))
            lines.append(f"{s} {u:0{bits_per_step}b} {rng.integers(n_states)} {idx}")
    return load_trellis("\n".join(lines))


def shuffled_alamouti_sixteen_qam():
    cb = alamouti_codebook(QAM16)
    perm = np.random.default_rng(16).permutation(cb.size)
    return BlockCodebook("shuffled", cb.codewords[perm], cb.bits_per_codeword)


class TestArrayKernels:
    CODEBOOKS = {
        "alamouti_qpsk": lambda: alamouti_codebook(QPSK),
        "alamouti_16qam": lambda: alamouti_codebook(QAM16),
        "golden_qpsk": lambda: golden_codebook(QPSK),
        "spatial_multiplex_qpsk_lt2": lambda: spatial_multiplex_codebook(QPSK, lt=2),
        # rank-1 ties everywhere: the first pair must win
        "spatial_multiplex_qpsk_lt3": lambda: spatial_multiplex_codebook(QPSK, lt=3),
        "shuffled_alamouti_16qam": shuffled_alamouti_sixteen_qam,
    }

    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_codebook_report_equals_pair_loop(self, name):
        cb = self.CODEBOOKS[name]()
        assert codebook_report(cb) == loop_codebook_report(cb)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: alamouti_codebook(QPSK),
            lambda: spatial_multiplex_codebook(QPSK, lt=3),
            lambda: BlockCodebook("golden_head", golden_codebook(QPSK).codewords[:64], 6),
        ],
    )
    def test_one_pair_per_slice_merges_to_the_first_worst_pair(self, make, monkeypatch):
        monkeypatch.setattr(designmetrics, "ML_SLICE_ELEMENTS", 1)
        cb = make()
        assert codebook_report(cb) == loop_codebook_report(cb)

    def test_array_metric_equals_per_row_metric(self):
        # planted ranks 0..lt, including partial ranks whose geometric mean
        # sums three or more logarithms
        rng = np.random.default_rng(17)
        for lt in range(1, 7):
            rows = []
            for rank in range(lt + 1):
                for _ in range(20):
                    big = rng.uniform(0.1, 10.0, size=rank)
                    tiny = rng.uniform(-1e-13, 1e-13, size=lt - rank)
                    rows.append(np.sort(np.concatenate([tiny, big])))
            eig = np.array(rows)
            rank, product, euclidean = designmetrics._eig_metrics(eig, lt)
            for k, row in enumerate(eig):
                assert (int(rank[k]), float(product[k]), float(euclidean[k])) == loop_metrics(
                    row, lt
                )

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_delay_diversity_events_equal_depth_first_walk(self, depth):
        code = load_packaged_trellis()
        assert_same_events(trellis_error_events(code, max_depth=depth), dfs_error_events(code, depth)[0])

    def test_all_reference_states_equal_depth_first_walk(self):
        code = load_packaged_trellis()
        got = trellis_error_events(code, max_depth=4, all_reference_states=True)
        assert_same_events(got, dfs_error_events(code, 4, all_reference_states=True)[0])

    @pytest.mark.parametrize(
        "seed, n_states, bits, lt",
        [(16, 4, 1, 2), (30, 4, 1, 2), (4, 4, 2, 2), (7, 4, 2, 2), (2, 2, 2, 2), (1, 8, 2, 1)],
    )
    def test_random_codes_deduplicate_like_depth_first_walk(self, seed, n_states, bits, lt):
        code = random_trellis(seed, n_states, bits, lt, "QPSK", 2)
        for all_ref in (False, True):
            want, n_raw = dfs_error_events(code, 6, all_reference_states=all_ref)
            assert len(want) < n_raw  # the deduplication is exercised
            got = trellis_error_events(code, max_depth=6, all_reference_states=all_ref)
            assert_same_events(got, want)

    @pytest.mark.parametrize("n_states, bits, lt, max_depth", [(16, 2, 2, 6), (64, 3, 1, 4)])
    def test_reference_path_through_high_states(self, n_states, bits, lt, max_depth):
        # the zero-input path from state 0 leaves it at once and visits high
        # states (6 to 12 of 16, 36 and 40 of 64); with 64 states and 8
        # inputs the step codes run past one byte
        code = random_trellis(0, n_states, bits, lt, "QPSK", 2)
        ref_states = [0]
        for _ in range(max_depth):
            ref_states.append(int(code.next_state[ref_states[-1], 0]))
        assert ref_states[1] != 0 and max(ref_states) >= n_states // 2
        for depth in range(1, max_depth + 1):
            for all_ref in (False, True):
                want, _ = dfs_error_events(code, depth, all_reference_states=all_ref)
                got = trellis_error_events(code, max_depth=depth, all_reference_states=all_ref)
                assert_same_events(got, want)

    def test_event_cap_boundary(self, monkeypatch):
        code = load_packaged_trellis()
        monkeypatch.setattr(designmetrics, "EVENT_CAP", 29523)
        assert len(trellis_error_events(code, max_depth=10)) == 29523
        monkeypatch.setattr(designmetrics, "EVENT_CAP", 29522)
        with pytest.raises(NumericError):
            trellis_error_events(code, max_depth=10)

    def test_depth_ten_traced_peak(self):
        code = load_packaged_trellis()
        tracemalloc.start()
        try:
            events = trellis_error_events(code, max_depth=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == 29523
        assert peak <= 40 * 2**20

    def test_frontier_stays_bounded_when_paths_rarely_remerge(self):
        # state 0 leaves on input 1 into a 24-state ring that returns to 0
        # only after 23 steps, and every ring state can branch or idle: the
        # live paths double at every step while almost none remerge
        n = 24
        lines = [f"trellis {n} 1 1 QPSK", "0 0 0 0", "0 1 1 1"]
        for s in range(1, n):
            lines += [f"{s} 0 {(s + 1) % n} 0", f"{s} 1 {s} 2"]
        code = load_trellis("\n".join(lines))
        assert_same_events(trellis_error_events(code, max_depth=12), dfs_error_events(code, 12)[0])
        tracemalloc.start()
        try:
            # 2^21 live paths at the last step: a whole level of 22-step
            # codes would take 370 MB
            events = trellis_error_events(code, max_depth=22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert events == []
        assert peak <= 32 * 2**20
