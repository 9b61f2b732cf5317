"""The exact discrete closure of a frozen tail: how a grid is closed past
node J.

A Dirichlet shift operator op = h_mu - z (Im z != 0, wall at node n - 1) is
frozen past node F (``frozen_from``) when every row beyond F carries the
wall node's potential diagonal w and, on a line grid, r' = 1, so that the
radii from F to the wall are r_F + k h.  Each such row reads
u_{j-1} - U u_j + u_{j+1} = 0, U = 2 + 2 h^2 (w - z), solved by rho^k and
rho^{-k}, rho the root of rho^2 - U rho + 1 = 0 with |rho| < 1: the exact
transparent closure of a tridiagonal tail (Meurant, SIAM J. Matrix Anal.
Appl. 13, 1992; Arnold, Ehrhardt and Sofronov, Commun. Math. Sci. 1,
2003), kept here with the wall's echo.

Far field (``far_field``).  G is op's solution for a unit source at J
divided by its value there (Im g_J = Im z ||g||^2 > 0, so the divisor is
not 0).  Past a source on nodes < J every solution of op is c G on nodes
>= J, c its value at J: both solve the rows beyond J and vanish at the
wall, and those solutions form one line (the tridiagonal Green's function
is L(min) R(max) / W).  With m = n - 1 - F nodes from F to the wall,
G_{F+k} = G_F (rho^k - rho^{2m-k}) / (1 - rho^{2m}) = A (rho^k - rho^m
rho^{m-k}), A = G_F / (1 - rho^{2m}).  So G is solved once, on op's first
F + 1 nodes closed at F by G_{F+1} / G_F (0 at m = 1: op's own Dirichlet
row), and never written past F.  A source on nodes < J then solves on
nodes <= J alone, closed by u_{J+1} = G_{J+1} u_J: the near operator, an
outgoing row.  F = J on the free, square-well and multiend ends, and on
exp and hyperbolic ends once mu / (2 f) is below an ulp of the diagonal;
where the diagonal never freezes (euclidean, power ends) F is the last
unknown and m = 1.

Tail Gram sums (``tail_gram``).  The difference of two solutions c1 G1 and
c2 G2 past J is e G1 + c2 D, e = c1 - c2 and D = G1 - G2, so its H_-s norm
there needs S_XY = sum_{j >= J} w_j X_j conj(Y_j) for (X, Y) = (G1, G1),
(D, D) and (G1, D): node by node over J .. F - 1, and past F from the
products P_ab = sum_k w G_a conj(G_b), S_11 = P_11, S_1D = P_11 - P_12 and
S_DD = P_11 + P_22 - 2 Re P_12.  Each P_ab is A_a conj(A_b) times four
truncated Lerch sums T = sum_{k<m} h (r_F + k h)^{-2s} e^{alpha + beta k}
= h^{1-2s} e^alpha Phi(e^beta, 2s, r_F / h) (DLMF 25.14), with e^beta one
of rho_a conj(rho_b), rho_a / conj(rho_b) and their inverses.  T is taken
over blocks of B = max(1, floor(r_F / (16 h))) nodes: in a block of radius
R0 the weight h R0^{-2s} (1 + j h / R0)^{-2s}, j h / R0 <= ``_BLOCK_SPAN``
= 1/16, is expanded in its binomial series, cut where the remainder is
below ``_SERIES_TOL`` = 1e-16 of the weight, against moments
sum_{j<B} (j / B)^p e^{beta j} that every block shares: O((m / B + B) P)
work per term, and no array of the tail's length.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .radial import OuterPolicy, RadialOperator
from .solver import resolve


def _last_moved(a, value) -> int:
    """1 + the index of the last entry of ``a`` that differs from ``value``,
    or 0 if none does; a stretch equal to it throughout is read by two
    reductions, with no temporary of its length."""
    if a.min() == value == a.max():
        return 0
    return a.size - int(np.argmin(a[::-1] == value))


def frozen_from(op: RadialOperator, junction: int) -> int:
    """F, the node at or past J = ``junction`` from which op's tail is frozen:
    the last node whose potential diagonal differs from the wall node's or,
    on a line grid, the node after the last where r' != 1, whichever is
    later, and at most the last unknown.  It depends only on the potential
    diagonal and the grid, so the operators of one diagonal at two z share
    it, and so does a prefix whose wall lies past it."""
    grid, w = op.grid, op.potential_diag
    wall = grid.n - 1
    far = junction + max(_last_moved(w[junction:wall], w[wall]) - 1, 0)
    if grid.radii is not grid.nodes:
        far = max(far, junction + _last_moved(grid.dr[junction:wall], 1.0))
    return min(far, wall - 1)


def _near_operator(op: RadialOperator, junction: int, rho: complex) -> RadialOperator:
    """``op`` on its first J + 1 nodes (J = ``junction``) with the last row
    op's row J under u_{J+1} = rho u_J."""
    h = op.grid.h
    a = 1j * (h * h * (op.potential_diag[junction] - op.z) + 1.0 - rho) / h
    return op.on_prefix(op.grid.prefix(junction + 1)).shifted(
        op.z, OuterPolicy.outgoing(a, +1))


@dataclass(frozen=True)
class FarField:
    """G of a Dirichlet shift operator beyond node J (module docstring)."""

    near: RadialOperator    # op's nodes <= J, closed by u_{J+1} = G_{J+1} u_J
    g: np.ndarray           # G on nodes J .. F, G_J = 1
    log_rho: complex        # log of the frozen rows' root, Re < 0
    m: int                  # nodes from F to the wall
    r_far: float            # the radius at F


def far_field(op: RadialOperator, junction: int, far: int) -> FarField:
    """The far field of ``op`` beyond node J = ``junction``, with F = ``far``
    its ``frozen_from``(op, J): one solve on op's first F + 1 nodes.

    Raises ``ContractError`` when Im z = 0 or |rho| is not below 1, where
    1 - rho^{2m} may vanish.
    """
    if op.z.imag == 0.0:
        raise ContractError(f"a Dirichlet far field needs Im z != 0, got z = {op.z}")
    w, wall = op.potential_diag, op.grid.n - 1
    m = wall - far
    # +-log rho = 2 asinh(sqrt(U - 2) / 2), accurate for U near 2
    t = 2.0 * cmath.asinh(0.5 * cmath.sqrt(2.0 * op.grid.h ** 2 * (w[wall] - op.z)))
    log_rho = -t if t.real > 0.0 else t
    if not log_rho.real < 0.0:
        raise ContractError(f"the frozen tail at z = {op.z} has no root with |rho| < 1")
    # G_{F+1} / G_F, exactly 0 at m = 1
    ratio = cmath.exp(log_rho) * complex(np.expm1((2 * m - 2) * log_rho)
                                         / np.expm1(2 * m * log_rho))
    phi = resolve(_near_operator(op, far, ratio), (junction, np.ones(1))).phi
    g = phi[junction:far + 1] / phi[junction]
    # G_{J+1}: on the solved stretch, or the first closed-form node past F = J
    rho = g[1] if far > junction else ratio
    return FarField(_near_operator(op, junction, rho), g, log_rho, m,
                    float(op.grid.radii[far]))


# a block of a tail sum spans at most r_F / 16, and its weight's series is
# cut where its remainder is below _SERIES_TOL of the weight
_BLOCK_SPAN = 1.0 / 16.0
_SERIES_TOL = 1e-16
# blocks are summed this many at a time, so no array grows with the tail
_BLOCK_CHUNK = 1024


def _series_order(s: float) -> int:
    """P: the binomial series of (1 + x)^{-2s} cut after x^P is within
    ``_SERIES_TOL`` of it, relative, for |x| <= x_max = ``_BLOCK_SPAN``.  The
    Lagrange remainder is |binom(-2s, P+1)| |x|^{P+1} (1 + xi)^{-2s-P-1}
    with |xi| <= x_max, so relative to (1 + x)^{-2s} >= (1 + x_max)^{-2s} it
    is at most |binom(-2s, P+1)| (x_max / (1 - x_max))^{P+1}
    ((1 + x_max) / (1 - x_max))^{2s}: 15^{-P-1} (17/15)^{2s} times the
    binomial at x_max = 1/16, and P = 14 at s = 1."""
    x = _BLOCK_SPAN
    spread = ((1.0 + x) / (1.0 - x)) ** (2.0 * s)
    coef, p = 1.0, 0
    while True:
        coef *= (2.0 * s + p) / (p + 1.0)
        if coef * (x / (1.0 - x)) ** (p + 1) * spread <= _SERIES_TOL:
            return p
        p += 1


def _tail_sums(r_far: float, h: float, m: int, s: float, alphas, betas) -> np.ndarray:
    """T = sum_{k<m} h (r_far + k h)^{-2s} e^{alpha + beta k} for each pair
    (alpha, beta) of ``alphas``, ``betas``, over blocks (module docstring);
    every term must have modulus at most its weight.  The block from node k0
    sums to e^{alpha + beta k0} h R0^{-2s} sum_p binom(-2s, p) (B h / R0)^p
    M_p.  A term with Re beta > 0 (growing towards the wall) is summed from
    the wall end, as alpha + beta (m - 1) and -beta, so no factor exceeds
    modulus 1; each chunk of ``_BLOCK_CHUNK`` blocks combines its exponent
    before it is exponentiated."""
    alphas = np.asarray(alphas, dtype=complex)
    betas = np.asarray(betas, dtype=complex)
    reverse = betas.real > 0.0
    alphas = np.where(reverse, alphas + betas * (m - 1), alphas)
    betas = np.where(reverse, -betas, betas)
    block = min(m, max(1, int(r_far * _BLOCK_SPAN / h)))
    n_blocks = -(-m // block)
    last = m - (n_blocks - 1) * block
    order = _series_order(s)
    binom = np.cumprod(np.concatenate(
        [[1.0], (-2.0 * s - np.arange(order)) / np.arange(1.0, order + 1.0)]))
    powers = (np.arange(block) / block)[:, None] ** np.arange(order + 1)
    geo = np.exp(np.outer(np.arange(block), betas))
    chunk = min(_BLOCK_CHUNK, n_blocks)
    heads = np.exp(np.outer(block * np.arange(chunk), betas))
    sums = np.zeros(betas.size, dtype=complex)
    for rev in (False, True):
        cols = np.flatnonzero(reverse == rev)
        # binom(-2s, p) M_p, over a whole block and over the last one, as
        # (re, im) pairs so that the products with the real powers stay real
        moments, last_moments = (
            (binom[:, None] * (part.T @ geo[:part.shape[0], cols])).view(float)
            for part in (powers, powers[:last]))
        for lo in range(0, n_blocks, chunk):
            k0 = block * np.arange(lo, min(lo + chunk, n_blocks))
            r0 = r_far + h * ((m - 1 - k0) if rev else k0)
            # (+-B h / R0)^p of each block, one row per p
            ratio = (-block if rev else block) * h / r0
            step = np.empty((order + 1, k0.size))
            step[0] = 1.0
            for p in range(1, order + 1):
                np.multiply(step[p - 1], ratio, out=step[p])
            sub = (step.T @ moments).view(complex)
            if lo + k0.size == n_blocks:
                sub[-1] = (step[:, -1] @ last_moments).view(complex)
            sub *= heads[:k0.size, cols]
            sub = ((h * r0 ** (-2.0 * s)) @ sub.view(float)).view(complex)
            sums[cols] += np.exp(alphas[cols] + betas[cols] * k0[0]) * sub
    return sums


def _frozen_products(field1: FarField, field2: FarField, s: float):
    """(P_11, P_12, P_22), P_ab = sum_{k<m} w_{F+k} G_a conj(G_b) at F + k,
    w = h r^{-2s}, of two far fields of one diagonal past their F: four
    ``_tail_sums`` terms each, of modulus <= 1 for 0 <= k <= m."""
    m = field1.m
    fields = [(f.g[-1] / -np.expm1(2 * m * f.log_rho), f.log_rho) for f in (field1, field2)]
    amps, alphas, betas = [], [], []
    for a, b in ((0, 0), (0, 1), (1, 1)):
        (aa, la), (ab, lb) = fields[a], fields[b]
        amps.append(aa * ab.conjugate())
        lb = lb.conjugate()
        alphas += [0.0, 2 * m * lb, 2 * m * la, 2 * m * (la + lb)]
        betas += [la + lb, la - lb, lb - la, -(la + lb)]
    sums = _tail_sums(field1.r_far, field1.near.grid.h, m, s, alphas, betas)
    return np.asarray(amps) * (sums.reshape(3, 4) @ np.array([1.0, -1.0, -1.0, 1.0]))


def tail_gram(field1: FarField, field2: FarField, weights, s: float):
    """(S_11, S_DD, S_1D) = sum_{j >= J} w_j X_j conj(Y_j) over (G1, G1),
    (D, D) and (G1, D), D = G1 - G2, for two far fields of one diagonal:
    node by node over J .. F - 1, where ``weights`` are the H_-s quadrature
    weights (``norm_weights(grid, -s)``, at least up to node F - 1), and in
    closed form past F."""
    junction = field1.near.grid.n - 1
    g1, g2 = field1.g[:-1], field2.g[:-1]
    mid_w, dg = weights[junction:junction + g1.size], g1 - g2
    s_11 = float(mid_w @ np.abs(g1) ** 2)
    s_dd = float(mid_w @ np.abs(dg) ** 2)
    s_1d = complex(np.vdot(mid_w * dg, g1))
    p_11, p_12, p_22 = _frozen_products(field1, field2, s)
    s_11 += p_11.real
    s_dd += p_11.real + p_22.real - 2.0 * p_12.real
    s_1d += p_11 - p_12
    return s_11, s_dd, s_1d
