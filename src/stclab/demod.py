"""Coherent ML word demodulation.

All decoders minimize the same word metric

    sum_k || Y(k) - sqrt(Es) H(k) x(k) ||^2

over their codeword set: exhaustive search for block codebooks, a
full-frame Viterbi pass for trellis codes, depth-first sphere decoding of
all the blocks of a batch in lockstep for linear-dispersion codes, and the
orthogonal fast combiner for Alamouti blocks.  The exhaustive search
screens every word by one real matrix product and computes the metric
directly only at the blocks whose argmin the screen cannot prove, so its
decisions are the direct metric's.  The metric of the decided word stays
inside the decoder.

Every decoder takes a batch of frames, ``y`` (frames, n_uses, lr) and ``h``
(frames, n_uses, lr, lt), and returns one DecodeResult for the batch: the
(frames, n_bits) decided bits, whose row f equals frame f decoded alone,
the batch's visited-node count (the search-effort measure) and the number
of frames whose decode a degenerate channel forced to fall back.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, check_es
from .mathcore import Constellation, patterns_to_bits
from .stcodes import BlockCodebook, LinearDispersionCode, TrellisCode

# Largest temporary of the exhaustive-ML kernel, in complex elements (32 MB);
# the screen's word features and products take an eighth of it in real
# values each (2 MB).
ML_SLICE_ELEMENTS = 2**21
# Values per temporary in one chunk of the metric kernel, or one row of
# its outer axis when that is longer.
ML_TILE_ELEMENTS = 2**15


class DecodeResult(NamedTuple):
    bits: np.ndarray
    visited: int
    degenerate: int


def _frames(y, h, lt, es):
    """A batch of frames as (frames, n_uses, lr) received and (frames,
    n_uses, lr, lt) fading arrays, for a code of lt transmit antennas,
    sent at a finite symbol energy es > 0."""
    check_es(es)
    yv = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if yv.ndim != 3:
        raise InputError(f"frames {yv.shape} must be a (frames, n_uses, lr) batch")
    if h.shape != yv.shape + (lt,):
        raise InputError(
            f"fading shape {h.shape} does not match frames {yv.shape}"
            f" of a code with lt={lt}"
        )
    return yv, h


def ml_exhaustive_blocks(y, h, cb: BlockCodebook, es):
    """Vectorized per-block ML over frames of consecutive codewords.

    Each frame must hold a whole number of codebook words; each block is
    decided alone, ties going to the lowest codeword index.  The batch is
    decoded frame by frame: a frame's work already grows with the
    codebook, while a slice across frames would multiply the temporaries
    by the number of frames.

    A frame is decided in two stages.  :func:`_screen` scores every word
    at every block by one real matrix product per slice of words and
    settles each block whose least screened value it proves to be the
    direct metric's unique minimiser.  The blocks it cannot settle (near
    ties, zero or rank-deficient channels, non-finite inputs), and every
    block of a frame whose H is all zero, go to :func:`_direct_scan`, which
    scores the whole codebook by the direct ||Y - sqrt(Es) H X||^2, summed
    in numpy's order, with ties to the lowest codeword index.  So every
    decision is the direct metric's argmin, whichever stage makes it.
    """
    yv, h = _frames(y, h, cb.codewords.shape[1], es)
    if yv.shape[1] % cb.n_uses:
        raise InputError(
            f"frame length {yv.shape[1]} is not a multiple of {cb.n_uses}"
        )
    idx = np.array([_ml_frame(yf, hf, cb, es) for yf, hf in zip(yv, h)])
    bits = patterns_to_bits(idx, cb.bits_per_codeword)
    return DecodeResult(bits, idx.size * cb.size, 0)


def _ml_frame(yv, h, cb, es):
    """The codeword index decided at each block of one frame."""
    u, lr = cb.n_uses, yv.shape[1]
    nb = yv.shape[0] // u
    yb = yv.reshape(nb, u, lr)
    # a quasi-static frame's H is one row, shared by every block
    hb = h.reshape(nb, u, lr, h.shape[2])[: 1 if np.all(h == h[:1]) else nb]
    if not hb.any():  # every screened value would be 0, settling no block
        return _direct_scan(yb, hb, cb, es)
    idx, settled = _screen(yb, hb, cb, es)
    rest = np.flatnonzero(~settled)
    if rest.size:
        idx[rest] = _direct_scan(yb[rest], hb if len(hb) == 1 else hb[rest], cb, es)
    return idx


def _direct_scan(yb, hb, cb, es):
    """The word of least direct metric at each block, ties to the lowest
    index: the codebook in slices of about ``ML_SLICE_ELEMENTS`` (block,
    word, use, antenna) values, each scored by :func:`_varying_metrics`,
    and a strict comparison across slices."""
    nb, u, lr = yb.shape
    step = max(1, ML_SLICE_ELEMENTS // max(nb * u * lr, 1))
    best = np.full(nb, np.inf)
    idx = np.zeros(nb, dtype=int)
    blocks = np.arange(nb)
    for start in range(0, cb.size, step):
        words = slice(start, start + step)
        gather = () if cb.columns is None else (cb.columns, cb.column_index[words])
        metrics = _varying_metrics(yb, hb, cb.codewords[words], es, *gather)
        pick = np.argmin(metrics, axis=1)
        found = metrics[blocks, pick]
        better = found < best
        best[better] = found[better]
        idx[better] = pick[better] + start
    return idx


def _screen(yb, hb, cb, es):
    """The word of least screened value at each block of a frame, and
    whether the screen proves it the direct metric's argmin there.

    ``yb`` is (nb, u, lr) and ``hb`` (nb, u, lr, lt), or one row shared
    by every block.  The metric of word x at block b expands as

        ||y_b||^2 - 2 Re sum_k z_bk^H x_k + sum_k x_k^H G_bk x_k

    with z_bk = sqrt(Es) H_bk^H y_bk and G_bk = Es H_bk^H H_bk, so its
    screened value, the metric less ||y_b||^2, is the product of the
    block's coefficients (:func:`_screen_coefficients`) and the word's
    K = 2 u lt + u lt^2 real features (:func:`_word_features`).  The
    words go in slices of ``ML_SLICE_ELEMENTS // 8`` real values of
    features and of products; each block keeps its two smallest screened
    values and the index of the first smallest.

    A block is settled iff second > best + 2 eps_b (:func:`_screen_eps`).
    Every word's screened value lies within eps_b of its direct metric
    less ||y_b||^2, so the direct minimiser's screened value is at most
    best + 2 eps_b; only the screen's argmin lies that low, so the two
    are one word, and it is the direct metric's unique minimiser.  A NaN
    fails the comparison, so a block with one is not settled.
    """
    left = _screen_coefficients(yb, hb, es)
    nb, k = left.shape
    step = max(1, ML_SLICE_ELEMENTS // 8 // max(nb, k))
    best, second = np.full(nb, np.inf), np.full(nb, np.inf)
    idx = np.zeros(nb, dtype=int)
    blocks = np.arange(nb)
    xi = 0.0
    for start in range(0, cb.size, step):
        feats, energy = _word_features(cb.codewords[start : start + step])
        xi = max(xi, energy)
        # numpy's @, a BLAS product: the bound holds in any summation order
        screened = left @ feats
        pick = np.argmin(screened, axis=1)
        low = screened[blocks, pick]
        screened[blocks, pick] = np.inf
        # the two smallest of the kept pair and this slice's pair
        second = np.minimum(np.minimum(second, screened.min(axis=1)), np.maximum(best, low))
        better = low < best
        idx[better] = pick[better] + start
        best = np.minimum(best, low)
    return idx, second > best + 2 * _screen_eps(yb, hb, es, xi)


def _screen_coefficients(yb, hb, es):
    """The (nb, K) coefficients of the word features at each block:
    -2 Re z, -2 Im z, G_jj, 2 Re G_jl and -2 Im G_jl (j < l), each laid
    out (feature, use) as in :func:`_word_features`."""
    nb, u, lr = yb.shape
    lt = hb.shape[3]
    jj, ll = np.triu_indices(lt, 1)
    hs = np.sqrt(es) * hb
    # numpy's einsum, not a BLAS product, so each complex term is
    # rounded part by part as the bound of _screen_eps assumes
    z = np.einsum("bkij,bki->bjk", np.broadcast_to(hs.conj(), (nb,) + hs.shape[1:]), yb)
    g = np.einsum("bkij,bkil->bjlk", hs.conj(), hs)
    left = np.empty((nb, 2 * lt + lt * lt, u))
    np.multiply(-2.0, z.real, out=left[:, :lt])
    np.multiply(-2.0, z.imag, out=left[:, lt : 2 * lt])
    left[:, 2 * lt : 3 * lt] = np.diagonal(g.real, axis1=1, axis2=2).transpose(0, 2, 1)
    pairs = g[:, jj, ll]
    left[:, 3 * lt : 3 * lt + len(jj)] = 2.0 * pairs.real
    left[:, 3 * lt + len(jj) :] = -2.0 * pairs.imag
    return left.reshape(nb, -1)


def _word_features(words):
    """The (K, n) real features of ``words`` (n, lt, u): per use, Re x_j,
    Im x_j, |x_j|^2 and Re, Im of conj(x_j) x_l (j < l, row-major), laid
    out (feature, use); and the largest word energy sum |x|^2 among them."""
    n, lt, u = words.shape
    feats = np.empty((2 * lt + lt * lt, u, n))
    feats[:lt] = words.real.transpose(1, 2, 0)
    feats[lt : 2 * lt] = words.imag.transpose(1, 2, 0)
    xr, xm, energy = feats[:lt], feats[lt : 2 * lt], feats[2 * lt : 3 * lt]
    np.add(np.square(xr), np.square(xm), out=energy)
    at_re, at_im = 3 * lt, 3 * lt + lt * (lt - 1) // 2
    for j in range(lt - 1):
        rows = slice(j + 1, lt)
        m = lt - 1 - j
        np.add(xr[j] * xr[rows], xm[j] * xm[rows], out=feats[at_re : at_re + m])
        np.subtract(xr[j] * xm[rows], xm[j] * xr[rows], out=feats[at_im : at_im + m])
        at_re, at_im = at_re + m, at_im + m
    return feats.reshape(-1, n), float(energy.sum(axis=(0, 1)).max(initial=0.0))


def _screen_eps(yb, hb, es, xi):
    """eps_b = c u_r (||y_b||^2 + Es max_k ||H_bk||_F^2 xi) at each block,
    with xi the codebook's largest word energy: a bound on |screened value
    + ||y_b||^2 - M_bw| for every word w, M_bw being the direct metric as
    :func:`_varying_metrics` rounds it.

    With u_r the unit roundoff, gamma_n = n u_r / (1 - n u_r), the
    per-entry forward-error bounds of sums and products (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3) in any summation order,
    with or without fused multiply-adds, and Y = ||y_b||^2, P = Es max_k
    ||H_bk||_F^2 xi, tau_ki = sqrt(Es) sum_j |h_kij| |x_kj|:

    - sum_ki tau_ki^2 <= P, and the exact metric D <= 2 (Y + P);
    - direct metric: each prediction errs by at most 2 gamma_{lt+3} tau,
      so each difference by u_r |d| + 2 gamma_{lt+3} tau; |d|^2 through
      hypot and a square adds gamma_5, the sum of u lr terms gamma_{u lr};
      in all (6 lt + 2 u lr + 30) u_r (Y + P);
    - screen: z and G err by 2 gamma_{lr+3} of their absolute sums, the
      features by gamma_2, and the product of K terms by gamma_K of
      sum |coefficient| |feature| <= Y + 2 P; in all (2 K + 4 lr + 15)
      u_r (Y + P).

    The sum, up to O(u_r^2), is below (2 K + 2 u lr + 4 lr + 6 lt + 48)
    u_r (Y + P); c is 4 times that, a safety factor for the second-order
    terms, the rounding of eps itself and of best + 2 eps.  The bounds
    leave out overflow and underflow, so a block whose Y, Es max ||H||^2
    or xi exceeds 2^300, or whose Y + P is below 2^-300, gets eps = inf
    and is never settled; so does one with a NaN.
    """
    nb, u, lr = yb.shape
    lt = hb.shape[3]
    k = u * (2 * lt + lt * lt)
    c = 4 * (2 * k + 2 * u * lr + 4 * lr + 6 * lt + 48)
    y_energy = np.sum(yb.real**2 + yb.imag**2, axis=(1, 2))
    es_eta = es * np.max(np.sum(hb.real**2 + hb.imag**2, axis=(2, 3)), axis=1, initial=0.0)
    scale = y_energy + es_eta * xi
    in_range = (scale >= 2.0**-300) & (np.maximum(np.maximum(y_energy, es_eta), xi) <= 2.0**300)
    return np.where(in_range, c * (np.finfo(float).eps / 2) * scale, np.inf)


def _varying_metrics(yb, hb, words, es, columns=None, column_index=None):
    """Metric of every word at every block of a frame.

    ``yb`` is (nb, u, lr), ``hb`` (nb, u, lr, lt), or (1, u, lr, lt) for
    an H shared by every block, and ``words`` (n, lt, u); returns the
    (nb, n) metrics, bitwise equal to

        np.sum(np.abs(yb[:, None] - np.sqrt(es)
                      * np.einsum("bkij,njk->bnki", hb, words)) ** 2,
               axis=(2, 3))

    by the same numpy operations on another layout.  The prediction is
    laid out (use, antenna, block, word), or (use, antenna, word, block)
    when blocks outnumber words and H varies, so every pass runs along the
    longer axis.  A shared H predicts the words once, or, given the
    distinct ``columns`` (n_columns, lt) and the words' ``column_index``
    (n, u), each column once per use, gathered into the words.  Each
    (use, antenna) term's |y - pred|^2 is one contiguous plane, added in
    numpy's order by :func:`_sum_terms`.  The outer axis goes in chunks of
    about ``ML_TILE_ELEMENTS`` values per temporary (at least one row)
    that reuse two buffers.
    """
    (nb, u, lr), n = yb.shape, len(words)
    terms = u * lr
    shared = len(hb) == 1
    words_inner = n >= nb or shared
    outer, inner = (nb, n) if words_inner else (n, nb)
    y = np.ascontiguousarray(yb.transpose(1, 2, 0))
    scale = np.sqrt(es)
    if words_inner:
        spec, chunked, whole = "bkij,kjn->kibn", hb, words.transpose(2, 1, 0)
    else:
        spec, chunked, whole = "njk,kijb->kinb", words, hb.transpose(1, 2, 3, 0)
    if not shared:
        whole = whole.copy()
    elif columns is None:
        pred = scale * np.einsum(spec, hb, whole.copy())
    else:
        col = scale * np.einsum("kij,cj->kic", hb[0], columns)
        pred = np.take_along_axis(col, column_index.T[:, None], 2)[:, :, None]
    chunk = min(outer, max(1, ML_TILE_ELEMENTS // (terms * inner)))
    work = np.empty(terms * chunk * inner, dtype=complex)
    sq_work = np.empty(work.size)
    metrics = np.empty((outer, inner))
    for a0 in range(0, outer, chunk):
        a1 = min(a0 + chunk, outer)
        shape = (u, lr, a1 - a0, inner)
        diff = work[: math.prod(shape)].reshape(shape)
        if not shared:
            pred = np.einsum(spec, chunked[a0:a1], whole, out=diff)
            np.multiply(scale, pred, out=pred)
        np.subtract(y[:, :, a0:a1, None] if words_inner else y[:, :, None], pred, out=diff)
        sq = np.abs(diff, out=sq_work[: diff.size].reshape(shape))
        np.square(sq, out=sq)
        metrics[a0:a1] = _sum_terms(sq.reshape(terms, a1 - a0, inner))
    return metrics if words_inner else metrics.T


def _sum_terms(planes):
    """Sum of ``planes`` (terms, ...) over its first axis in the order
    np.sum adds a contiguous axis (numpy's pairwise sum): in sequence below
    8 terms; up to 128, in 8 running sums added as ((0 + 1) + (2 + 3)) +
    ((4 + 5) + (6 + 7)), then the rest in sequence; above 128, as two such
    sums split at a multiple of 8.  Overwrites ``planes``.
    """
    n = len(planes)
    if n > 128:
        half = n // 2 - n // 2 % 8
        first = _sum_terms(planes[:half])
        return np.add(first, _sum_terms(planes[half:]), out=first)
    rest = n - n % 8 if n >= 8 else 1
    for i in range(8, rest, 8):
        np.add(planes[:8], planes[i : i + 8], out=planes[:8])
    for s in (1, 2, 4) if n >= 8 else ():
        np.add(planes[: 8 : 2 * s], planes[s : 8 : 2 * s], out=planes[: 8 : 2 * s])
    for i in range(rest, n):
        np.add(planes[0], planes[i], out=planes[0])
    return planes[0]


def viterbi_decode(y, h, code: TrellisCode, es):
    """Exact ML over all state-0-terminated trellis paths.

    Branch ties prefer the smaller (state, input) pair, so results are
    deterministic and reproducible against the exhaustive oracle.  The
    batch runs one add-compare-select pass over all its frames.
    """
    yv, h = _frames(y, h, code.lt, es)
    n_frames, nf, lr = yv.shape
    n_term = code.n_term_steps
    data_steps = nf - n_term
    if data_steps < 0:
        raise InputError(
            f"frame of {nf} uses is shorter than the {n_term}-step tail"
        )
    s_count, u_count = code.n_states, code.n_inputs
    cand = code.constellation.points[code.out_idx] / np.sqrt(code.lt)
    # branch metrics: every use of every frame is a one-use block, and every
    # (state, input) branch output a one-use word
    bm = _varying_metrics(
        yv.reshape(-1, 1, lr),
        h.reshape(-1, 1, lr, h.shape[3]),
        cand.reshape(-1, code.lt, 1),
        es,
    ).reshape(n_frames, nf, s_count, u_count)

    # incoming transitions per state, each row sorted by (state, input) so
    # argmin's first-hit rule implements the documented tie-break
    flat_next = code.next_state.reshape(-1)
    incoming = [np.flatnonzero(flat_next == ns) for ns in range(s_count)]
    degree = np.array([len(v) for v in incoming])
    gather = np.array([np.pad(v, (0, degree.max() - len(v))) for v in incoming])
    dead = np.arange(degree.max()) >= degree[:, None]

    frames = np.arange(n_frames)
    costs = np.full((n_frames, s_count), np.inf)
    costs[:, 0] = 0.0
    back = np.zeros((data_steps, n_frames, s_count), dtype=int)
    for k in range(data_steps):
        cand_costs = (costs[:, :, None] + bm[:, k]).reshape(n_frames, -1)[:, gather]
        cand_costs[:, dead] = np.inf
        pick = np.argmin(cand_costs, axis=2)
        back[k] = gather[np.arange(s_count), pick]
        costs = cand_costs.min(axis=2)

    # deterministic termination tail of every end-of-data state, stepped
    # together (an unreachable state's cost stays infinite)
    total = costs.copy()
    cur = np.arange(s_count)
    for t in range(n_term):
        u = code.term_inputs[:, t]
        total += bm[:, data_steps + t, cur, u]
        cur = code.next_state[cur, u]

    best = np.argmin(total, axis=1)
    patterns = np.zeros((n_frames, data_steps), dtype=int)
    state = best
    for k in range(data_steps - 1, -1, -1):
        src = back[k, frames, state]
        patterns[:, k] = src % u_count
        state = src // u_count
    visited = n_frames * (data_steps * s_count * u_count + s_count * n_term)
    return DecodeResult(patterns_to_bits(patterns, code.bits_per_step), visited, 0)


def _axis_levels(c: Constellation):
    """Real-axis levels of a product (square QAM style) constellation.

    Returns (levels, table) where table[i_re, i_im] is the bit pattern of
    the point at those level indices.  Raises InputError when the
    constellation is not a full product of one real level set.
    """
    parts = np.round([c.points.real, c.points.imag], 12)
    levels, at = np.unique(parts, return_inverse=True)
    table = np.full((levels.size, levels.size), -1)
    table[tuple(at.reshape(2, -1))] = np.arange(c.size)
    if levels.size**2 != c.size or np.any(table < 0):
        raise InputError(f"{c.name} is not a product of one real level set")
    return levels, table


def _dispersion_system(yv, h, code: LinearDispersionCode, es, lattices):
    """Real-valued lattice systems: y_r (nb, n) of every codeword block and
    G_r (len(lattices), n, 2 n_syms) of the blocks numbered ``lattices``,
    n = 2 lr n_uses, the real and imaginary parts of y_eff = G s stacked.
    """
    u = code.n_uses
    nb, lr = yv.shape[0] // u, yv.shape[1]
    hb = h.reshape(nb, u, lr, h.shape[2])[lattices]
    g = np.sqrt(es) * np.einsum("bkij,mjk->bkim", hb, code.basis)
    g = g.reshape(len(hb), u * lr, code.n_syms)
    yc = yv.reshape(nb, u * lr)
    gr = np.block([[g.real, -g.imag], [g.imag, g.real]])
    yr = np.concatenate([yc.real, yc.imag], axis=1)
    return yr, gr


def _lockstep_search(z, r, levels, of=slice(None)):
    """Depth-first closest-first search of many triangular systems at once.

    ``z`` is (nb, d) and block b searches it on the upper-triangular (d, d)
    r[of[b]], r[b] by default.  Each block searches from the last dimension
    down with the Babai point as the first leaf.  Children are tried
    closest-first (a stable sort, so equidistant levels keep ascending
    order) and a child whose cost is not strictly below the best leaf ends
    its sibling loop.  Each pass of the loop advances every unfinished
    block by one node, read from flat per-node tables: it visits a child,
    which is pruned (the block returns a level up), descends or records a
    leaf, or finds its children used up and returns a level up.  Returns
    the closest points (nb, d) and each block's visited nodes.

    Each residual's partial dot accumulates in index order; numpy's dot
    may fuse each multiply-add (FMA hardware) and differ in the last bit.
    Squares are correctly rounded, where Python's ``x ** 2`` (C pow, glibc
    2.36) is a bit off for about one random square in 1,200.  Either can
    move a decision or a visit count only at a tie to within that bit.
    """
    nb, d = z.shape
    n_lv = levels.size
    rs = np.triu(r, 1)[of].reshape(nb * d, d)
    rd = np.diagonal(r, axis1=1, axis2=2)[of].reshape(-1, 1)
    zf = z.reshape(-1, 1)
    v, best_v = np.zeros((nb, d)), np.zeros((nb, d))
    vf = v.reshape(-1)
    visited = np.zeros(nb, dtype=int)
    # per node (block, level), n_lv + 1 slots read by flat index: its
    # children closest-first, their costs and whether a slot holds a child;
    # the extra last slot costs inf, so a block whose children are used up
    # returns a level up; and the flat slot of each node's next child
    kids = np.zeros((nb * d, n_lv + 1))
    costs = np.full((nb * d, n_lv + 1), np.inf)
    is_kid = np.tile(np.arange(n_lv + 1) < n_lv, nb * d).astype(int)
    pos = np.zeros(nb * d, dtype=int)

    def expand(b, k, above):
        rdk, part = rd.take(k, axis=0), rs.take(k, axis=0) * v.take(b, axis=0)
        resid = zf.take(k, axis=0) - part.cumsum(axis=1)[:, -1:]
        order = np.abs(levels - resid / rdk).argsort(axis=1, kind="stable")
        kids[k, :n_lv] = s = levels.take(order)
        costs[k, :n_lv] = above + (resid - rdk * s) ** 2
        pos[k] = k * (n_lv + 1)

    # the unfinished blocks, their levels, nodes, visits and best leaf costs
    act = np.arange(nb)
    lev = np.full(nb, d - 1)
    node = act * d + lev
    vis, best = np.zeros(nb, dtype=int), np.full(nb, np.inf)
    expand(act, node, np.zeros((nb, 1)))
    while act.size:
        p = pos.take(node)
        cost = costs.take(p)
        vis += is_kid.take(p)
        pos[node] = p + 1
        ok, bottom = cost < best, lev == 0
        go = ok.nonzero()[0]
        vf[node.take(go)] = kids.take(p.take(go))
        leaf = (ok & bottom).nonzero()[0]
        if leaf.size:
            best[leaf] = cost.take(leaf)
            best_v[act.take(leaf)] = v.take(act.take(leaf), axis=0)
        # a prune or a used-up node moves its block one level up, a descent
        # down; the flags step as int8, which needs no cast
        descend = ok > bottom
        step = 1 - ok.view(np.int8) - descend.view(np.int8)
        lev += step
        node += step
        down = descend.nonzero()[0]
        if down.size:
            expand(act.take(down), node.take(down), cost.take(down)[:, None])
        if lev.max() == d:
            live = lev < d
            visited[act[~live]] = vis[~live]
            act, lev, node, vis, best = act[live], lev[live], node[live], vis[live], best[live]
    return best_v, visited


def sphere_decode(y, h, code: LinearDispersionCode, es):
    """Exact ML for consecutive linear-dispersion codewords via sphere decoding.

    Each frame must hold a whole number of codewords.  Each codeword is
    vectorized into y_eff = G s + n, expanded to a real lattice and
    searched depth-first in closest-first child order with the Babai point
    as the initial radius.  The lattice algebra (one einsum, one stacked
    QR) runs once per distinct channel of the batch: once per frame whose
    H is constant, once per block of a frame whose H varies.  One lockstep
    search covers every block whose lattice is not degenerate.
    Requires lr >= lt so the lattice has full column rank.  A block with a
    degenerate channel is decided by exhaustive ML over ``code.codebook``,
    built by the first batch that has one and kept with the code: the
    decisions of :func:`ml_exhaustive_blocks`, ties to the lowest codeword
    index.  Its frame counts as degenerate.
    """
    if not isinstance(code, LinearDispersionCode):
        raise InputError(
            f"{type(code).__name__} has no linear-dispersion form"
        )
    yv, h = _frames(y, h, code.basis.shape[1], es)
    n_frames, n, lr = yv.shape
    u = code.n_uses
    if n % u:
        raise InputError(
            f"frame length {n} is not a multiple of the {u}-use"
            " dispersion codeword"
        )
    c = code.constellation
    levels, table = _axis_levels(c)
    # whole codewords never straddle two frames, so the blocks of all frames
    # form one long frame; a frame whose H is constant shares one lattice
    blocks = np.arange(n_frames * (n // u)).reshape(n_frames, -1)
    static = np.all(h == h[:, :1], axis=(1, 2, 3))
    owner = np.where(static[:, None], blocks[:, :1], blocks).reshape(-1)
    lattices, of = np.unique(owner, return_inverse=True)
    yr, gr = _dispersion_system(
        yv.reshape(-1, lr), h.reshape(-1, lr, h.shape[3]), code, es, lattices
    )
    m = code.n_syms
    d = 2 * m
    if gr.shape[1] < d:
        raise InputError(
            f"underdetermined lattice: {gr.shape[1]} real observations for"
            f" {d} real unknowns (need lr * n_uses >= n_syms)"
        )
    q, r = np.linalg.qr(gr)
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    r = signs[:, :, None] * r
    z = signs[of] * (q[of].transpose(0, 2, 1) @ yr[:, :, None])[:, :, 0]
    rdiag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    degenerate = (rdiag.min(axis=1) < 1e-12 * np.maximum(rdiag.max(axis=1), 1.0))[of]
    v, visited = np.zeros((yr.shape[0], d)), np.full(yr.shape[0], c.size**m)
    ok = ~degenerate
    v[ok], visited[ok] = _lockstep_search(z[ok], r, levels, of[ok])
    idx = np.argmin(np.abs(v[:, :, None] - levels), axis=2)
    words = table[idx[:, :m], idx[:, m:]] @ c.size ** np.arange(m - 1, -1, -1)
    if degenerate.any():
        # exhaustive ML over the encoder's codebook, as one frame of the
        # degenerate blocks
        yd = yv.reshape(-1, u, lr)[degenerate].reshape(-1, lr)
        hd = h.reshape(-1, u, lr, h.shape[3])[degenerate].reshape(-1, lr, h.shape[3])
        words[degenerate] = _ml_frame(yd, hd, code.codebook, es)
    return DecodeResult(
        patterns_to_bits(words.reshape(n_frames, -1), m * c.bits_per_symbol),
        int(visited.sum()),
        int(np.count_nonzero(degenerate.reshape(n_frames, -1).any(axis=1))),
    )


def alamouti_combine(y, h, es, c: Constellation):
    """Orthogonal combining plus per-symbol slicing for Alamouti frames.

    Works block by block over pairs of uses.  For each block with channel
    columns h1, h2 the statistics z1 = h1^H y1 + y2^H h2 and
    z2 = h2^H y1 - h1^T conj(y2) decouple the two symbols with combining
    gain g = ||h1||^2 + ||h2||^2, so slicing z against sqrt(Es/2) g times
    each point is exact ML when the channel is constant within each block.
    A block whose channel varies (Clarke fading, pilot estimates) is
    combined with the channel of its first use, an approximation.  A
    zero-gain block decides pattern 0 and counts its frame as degenerate.
    """
    yv, h = _frames(y, h, 2, es)
    n_frames, nf, lr = yv.shape
    if nf % 2:
        raise InputError("frame length must be even (2-use blocks)")
    yb = yv.reshape(n_frames, nf // 2, 2, lr)
    hb = h.reshape(n_frames, nf // 2, 2, lr, 2)
    h1 = hb[:, :, 0, :, 0]
    h2 = hb[:, :, 0, :, 1]
    y1 = yb[:, :, 0]
    y2 = yb[:, :, 1]
    z1 = np.sum(np.conj(h1) * y1, axis=2) + np.sum(np.conj(y2) * h2, axis=2)
    z2 = np.sum(np.conj(h2) * y1, axis=2) - np.sum(h1 * np.conj(y2), axis=2)
    gain = np.sum(np.abs(h1) ** 2 + np.abs(h2) ** 2, axis=2)
    scaled = (np.sqrt(es / 2.0) * gain)[:, :, None] * c.points
    idx1 = np.argmin(np.abs(z1[:, :, None] - scaled) ** 2, axis=2)
    idx2 = np.argmin(np.abs(z2[:, :, None] - scaled) ** 2, axis=2)
    # a point's index is its bit pattern
    pat = np.stack([idx1, idx2], axis=2).reshape(n_frames, -1)
    bits = patterns_to_bits(pat, c.bits_per_symbol)
    degenerate = int(np.count_nonzero(np.any(gain <= 0.0, axis=1)))
    return DecodeResult(bits, n_frames * nf * c.size, degenerate)
