"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, dense matrices, brute force)
or taken from scipy (the csgraph_* references the package used to call),
and shares no code with the production paths it checks, with four
exceptions: random_bench_graph and first_layer_inputs only build inputs,
peak_bytes only measures, and solve_connectivity_row is the production row
solve seen one dense row at a time, for the tests that state the closed
form row by row. adam_step_expression reads training's Adam constants.
"""

import itertools
import tracemalloc

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (
    connected_components,
    min_weight_full_bipartite_matching,
)

from anchorgae import training
from anchorgae.anchor_graph import AnchorGraph, _solve_rows
from anchorgae.convolution import EncoderParams, apply_anchor_adjacency


def peak_bytes(fn):
    """Peak bytes allocated while fn runs, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def matmul_loops(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def matmul(a, b):
    """Matrix product with an explicit shape check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"cannot multiply shapes {a.shape} x {b.shape}: inner dimensions differ"
        )
    return a @ b


def pairwise_sq_dist_expression(a, b):
    """Squared distances by the norm expansion written as one expression,
    sq_a + sq_b - 2 a b^T, clamped at 0."""
    cross = a @ b.T
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d = sq_a[:, None] + sq_b[None, :] - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    return d


def pairwise_loops(a, b):
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            diff = a[i] - b[j]
            out[i, j] = float(diff @ diff)
    return out


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def gamma_from_sparsity(dists, k):
    """The regularizer weight implied by a target sparsity of k."""
    d_sorted = np.sort(dists)
    return 0.5 * (k * d_sorted[k] - d_sorted[:k].sum())


def row_objective(p, dists, gamma, m):
    return float(p @ dists + gamma * ((p - 1.0 / m) ** 2).sum())


def projected_gradient_row(dists, k, iters=200):
    """Minimize the regularized transport row problem over the simplex by
    projected gradient with the exact 1/L step."""
    m = dists.size
    gamma = gamma_from_sparsity(dists, k)
    assert gamma > 0, "degenerate tie instance; oracle undefined"
    p = np.full(m, 1.0 / m)
    step = 1.0 / (2.0 * gamma)
    for _ in range(iters):
        grad = dists + 2.0 * gamma * (p - 1.0 / m)
        p = project_simplex(p - step * grad)
    return p


def sorted_rows(dists, k):
    """Closed-form k-sparse rows from a full stable sort of every row:
    (nearest, weights, gamma, d_sup), nearest the k+1 nearest anchors with
    the support first, ties to the lowest anchor index, the uniform 1/k row
    where the k+1 nearest all tie."""
    order = np.argsort(dists, axis=1, kind="stable")
    support = order[:, :k]
    d_sup = np.take_along_axis(dists, support, axis=1)
    d_bound = np.take_along_axis(dists, order[:, k:k + 1], axis=1)
    num = d_bound - d_sup
    den = num.sum(axis=1, keepdims=True)
    degenerate = den <= 0.0
    weights = np.where(degenerate, 1.0 / k,
                       num / np.where(degenerate, 1.0, den))
    return order[:, :k + 1], weights, 0.5 * den[:, 0], d_sup


def solve_connectivity_row(dists, k):
    """Connectivity distribution of one sample as a dense length-m row,
    from the production solve."""
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 1:
        raise ValueError(f"dists must be a vector, got shape {dists.shape}")
    if not np.all(np.isfinite(dists)) or np.any(dists < 0):
        raise ValueError("dists must be finite and nonnegative")
    nearest, weights, *_ = _solve_rows(dists[None, :], k)
    row = np.zeros(dists.shape[0])
    row[nearest[0, :k]] = weights[0]
    return row


def dense_adjacencies(indices, weights, m):
    """Densified sample- and anchor-side adjacencies built by loops."""
    n, k = indices.shape
    b = np.zeros((n, m))
    for i in range(n):
        for t in range(k):
            b[i, indices[i, t]] += weights[i, t]
    delta = b.sum(axis=0)
    a = b @ np.diag(1.0 / delta) @ b.T
    a_t = np.diag(1.0 / delta) @ b.T @ b
    return b, a, a_t


def normalize_anchor_side(g):
    """Anchor-to-sample transition matrix (m x n): column j of B divided by
    its degree, so each anchor row is a distribution over samples."""
    return (g.csr().toarray() / g.delta[None, :]).T


def random_bench_graph(n, m, k, rng):
    """Random k-sparse graph with every anchor referenced: row j holds
    anchor j for j < m, the other picks and the weights are uniform draws."""
    idx = np.argsort(rng.random((n, m)), axis=1)[:, :k]
    for j in range(m):
        if j not in idx[j]:
            idx[j, 0] = j
    w = rng.random((n, k)) + 0.1
    w /= w.sum(axis=1, keepdims=True)
    return AnchorGraph(idx, w, m)


def first_layer_inputs(g, x, c):
    """The encoder's first-layer inputs for raw samples x and anchors c,
    both m x d: (g.pool(x), apply_anchor_adjacency(g, c))."""
    return g.pool(x), apply_anchor_adjacency(g, c)


def factored_anchor_adjacency(g, h):
    """diag(1/delta) B^T (B h): the anchor-side product as two sparse
    passes, never forming the m x m matrix."""
    b = g.csr()
    return (b.T @ (b @ h)) / g.delta[:, None]


def factored_anchor_adjacency_t(g, h):
    """B^T (B (h / delta)): the transpose of the anchor-side product as two
    sparse passes."""
    b = g.csr()
    return b.T @ (b @ (h / g.delta[:, None]))


def on_support(g, q):
    """The entries of a dense n x m reconstruction on g's support (n x k)."""
    return np.take_along_axis(q, g.indices, axis=1)


def whole_matrix_decode(z, z_t):
    """Row-softmax of negative squared distances, as one n x m array."""
    logits = -pairwise_sq_dist_expression(z, z_t)
    logits -= logits.max(axis=1, keepdims=True)
    q = np.exp(logits)
    q /= q.sum(axis=1, keepdims=True)
    return q


def whole_matrix_loss(g, q):
    """Cross-entropy of g's rows against a dense reconstruction q,
    floored at 1e-300 before the log."""
    q_sup = np.maximum(on_support(g, q), 1e-300)
    return float(-np.sum(g.weights * np.log(q_sup)))


def whole_matrix_decoder_grads(g, z, z_t):
    """(grad_z, grad_zt, q) of the cross-entropy w.r.t. both embeddings,
    from the dense residual p - q."""
    q = whole_matrix_decode(z, z_t)
    resid = -q.copy()
    resid[np.arange(g.n)[:, None], g.indices] += g.weights
    grad_z = -2.0 * (resid @ z_t)
    grad_zt = -2.0 * (resid.T @ z) + 2.0 * resid.sum(axis=0)[:, None] * z_t
    return grad_z, grad_zt, q


def apply_sample_adjacency(g, h):
    """(B diag(1/delta) B^T) @ h, the n-row sample-side aggregate, through
    two sparse passes (the n x n matrix is never formed)."""
    b = g.csr()
    return b @ ((b.T @ h) / g.delta[:, None])


def aggregated_forward(g, x, params, apply_adj):
    """Aggregate-then-multiply forward pass: each layer forms apply_adj(g, h)
    (n x d_l on the sample side) and multiplies it by W. Returns
    (out, aggregates, pre-activations)."""
    h, aggregates, pre = x, [], []
    last = len(params.layers) - 1
    for l, w in enumerate(params.layers):
        aggregates.append(apply_adj(g, h))
        pre.append(aggregates[-1] @ w)
        h = pre[-1] if l == last else np.maximum(pre[-1], 0.0)
    return h, aggregates, pre


def aggregated_branch_grads(g, aggregates, pre, params, grad_out, apply_adj_t):
    """Weight gradients of one branch from aggregated_forward's
    intermediates: aggregate^T g at every layer, apply_adj_t(g, g W^T)
    between layers."""
    last = len(params.layers) - 1
    grads = [None] * len(params.layers)
    grad = grad_out
    for l in range(last, -1, -1):
        if l < last:
            grad = grad * (pre[l] > 0.0)
        grads[l] = aggregates[l].T @ grad
        if l > 0:
            grad = apply_adj_t(g, grad @ params.layers[l].T)
    return grads


def aggregated_sample_grads(g, x, params, grad_z):
    """Sample-branch weight gradients for upstream gradient grad_z, by the
    aggregate-then-multiply order (the sample adjacency is symmetric)."""
    _, aggregates, pre = aggregated_forward(g, x, params, apply_sample_adjacency)
    return aggregated_branch_grads(g, aggregates, pre, params, grad_z,
                                   apply_sample_adjacency)


def aggregated_anchor_grads(g, c, params, grad_zt):
    """Anchor-branch weight gradients for upstream gradient grad_zt, with the
    anchor adjacency applied as two sparse passes."""
    _, aggregates, pre = aggregated_forward(g, c, params,
                                            factored_anchor_adjacency)
    return aggregated_branch_grads(g, aggregates, pre, params, grad_zt,
                                   factored_anchor_adjacency_t)


def adam_step_expression(w, grad, m1, v1, learning_rate, t):
    """One Adam step as whole-array expressions, each update in the order
    train used to write it: m1 and v1 updated in place, then w."""
    beta1, beta2 = training.ADAM_BETA1, training.ADAM_BETA2
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m1 *= beta1
    m1 += (1.0 - beta1) * grad
    v1 *= beta2
    v1 += (1.0 - beta2) * grad * grad
    w -= learning_rate * (m1 / bc1) / (np.sqrt(v1 / bc2) + training.ADAM_EPS)


def encoder_dims(params):
    """The dimension chain of an encoder: input width, then each layer's
    output width."""
    return [params.layers[0].shape[0]] + [w.shape[1] for w in params.layers]


def copy_params(params):
    """An independent copy of an encoder's weights."""
    return EncoderParams([w.copy() for w in params.layers])


def dense_gcn_forward(a, x, params):
    """Reference forward pass through an explicit adjacency: ReLU after
    every layer but the last."""
    h = x
    last = len(params.layers) - 1
    for l, w in enumerate(params.layers):
        h = a @ h @ w
        if l < last:
            h = np.maximum(h, 0.0)
    return h


def brute_force_acc(pred, truth):
    """Best matched fraction over all label permutations (c <= ~6)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth)
    best = 0
    source, target = (pred_ids, truth_ids) if len(pred_ids) <= len(truth_ids) \
        else (truth_ids, pred_ids)
    left, right = (pred, truth) if len(pred_ids) <= len(truth_ids) else (truth, pred)
    for perm in itertools.permutations(target, len(source)):
        hits = 0
        for s, t in zip(source, perm):
            hits += int(np.sum((left == s) & (right == t)))
        best = max(best, hits)
    return best / pred.size


def union_find_components(n_left, n_right, edges):
    """Connected components of a bipartite graph given (left, right) edges."""
    parent = list(range(n_left + n_right))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ra, rb = find(i), find(n_left + j)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(n_left + n_right)})


def csgraph_component_count(g):
    """Connected components of g's bipartite graph (samples and anchors as
    nodes, positive-weight entries as edges) by scipy.sparse.csgraph."""
    live = g.weights > 0
    rows = np.repeat(np.arange(g.n), g.k)[live.ravel()]
    cols = g.indices.ravel()[live.ravel()] + g.n
    total = g.n + g.m
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                        shape=(total, total))
    return int(connected_components(adj, directed=False)[0])


def csgraph_matched_count(table):
    """Largest matched count of a (rectangular) contingency table, by
    scipy.sparse.csgraph's exact matcher on the square zero-padded table.
    The costs max - count + 1 are all positive, so the matcher reads every
    entry as an edge and the graph is complete."""
    size = max(table.shape)
    counts = np.zeros((size, size), dtype=np.int64)
    counts[: table.shape[0], : table.shape[1]] = table
    cost = sp.csr_array((counts.max() - counts + 1).astype(np.float64))
    rows, cols = min_weight_full_bipartite_matching(cost)
    return int(counts[rows, cols].sum())


def entropy(p):
    p = np.asarray(p)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def numerical_grads(value_fn, params, step=1e-5):
    """Central finite differences of value_fn() w.r.t. every weight entry."""
    grads = []
    for w in params.layers:
        grad = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + step
            f_plus = value_fn()
            w[idx] = orig - step
            f_minus = value_fn()
            w[idx] = orig
            grad[idx] = (f_plus - f_minus) / (2.0 * step)
        grads.append(grad)
    return grads
