"""The QRE solver's array kernel: substituted states, logit responses and their derivatives.

Substituting a pure value, 0 or 1, for alpha or for gamma in the asymmetric
stationary state gives four states, each a quotient of quadratics in (alpha,
gamma); the payoff is bilinear in them.  So the two payoff gaps, the logit
response sigma and the squared residual F have first and second derivatives
in closed form.

On arrays the four substitutions, their two parts, the gradient components
and the pair (sigma_alpha, sigma_gamma) go through as stacks, because on the
few dozen points of a solve each numpy call costs more in dispatch than in
arithmetic.  Each element still gets the float operations of a loop over the
substitutions, in their order.  On Python floats (the arc trace,
``conditional_payoffs``, ``qre_objective``) the substitutions are priced one
at a time, with no numpy call.
"""

from __future__ import annotations

import numpy as np

from .game import PayoffMatrix

#: Points per block of :func:`_objective_derivatives`, beyond which
#: :func:`_conditional_utilities` prices one state per call: the stacked kernel's hundred
#: or so temporaries per point stay near 0.5 MB for a whole sweep stack, and the
#: objective grid's blocks are priced as before.
KERNEL_BLOCK = 512


def _conditional_dens(alpha, gamma):
    """Denominators of the four substituted stationary states.

    Works elementwise for floats and numpy arrays alike.  Order:
    (alpha=0, alpha=1, gamma=0, gamma=1).
    """
    d = alpha - gamma
    return (
        1.0 + gamma * d,
        1.0 - (1.0 - gamma) * d,
        1.0 - alpha * d,
        1.0 - (alpha - 1.0) * d,
    )


def _conditional_numerators(alpha, gamma):
    """Numerators (p1, p2) of the substituted stationary states.

    Pair order matches :func:`_conditional_dens`; each state is p = numerator / denominator.
    """
    aa, ag = alpha * alpha, alpha * gamma
    p1_g0 = alpha - aa
    p2_g = p1_g0 + ag
    return (
        (ag, alpha),
        (1.0 - alpha + ag, gamma),
        (p1_g0, p2_g),
        (2.0 * alpha - aa, p2_g),
    )


def _conditional_utilities(alpha, gamma, matrix: PayoffMatrix):
    """Payoffs of the four substituted states, in :func:`_conditional_dens` order.

    On arrays of at most ``KERNEL_BLOCK`` points one (4, ...) array: the states
    are divided into one (p1, p2) buffer and priced in one ``payoff`` call.
    Otherwise a list of four, one ``payoff`` call per state: Python floats on
    floats, and on long arrays, where the calls cost little, arrays whose
    temporaries are a quarter of the stack's.
    """
    pairs = zip(_conditional_numerators(alpha, gamma), _conditional_dens(alpha, gamma))
    if not (isinstance(alpha, np.ndarray) and alpha.size <= KERNEL_BLOCK):
        return [matrix.payoff(n1 / den, n2 / den) for (n1, n2), den in pairs]
    states = np.empty((2, 4, *alpha.shape))
    for k, ((n1, n2), den) in enumerate(pairs):
        np.divide(n1, den, out=states[0, k, ...])
        np.divide(n2, den, out=states[1, k, ...])
    return matrix.payoff(*states)


#: The numerators and denominators of the substituted states as quadratics
#: c0 + c1*a + c2*g + c3*a*a + c4*a*g + c5*g*g in (alpha, gamma), indexed by
#: (substitution in :func:`_conditional_dens` order, part: p1 numerator, p2
#: numerator, denominator, coefficient).
_PART_COEFFS = np.array(
    [
        [[0, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 1, -1]],
        [[1, -1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0], [1, -1, 1, 0, 1, -1]],
        [[0, 1, 0, -1, 0, 0], [0, 1, 0, -1, 1, 0], [1, 0, 0, -1, 1, 0]],
        [[0, 2, 0, -1, 0, 0], [0, 1, 0, -1, 1, 0], [1, 1, -1, -1, 1, 0]],
    ],
    dtype=float,
)
_PART_ROWS = _PART_COEFFS.tolist()  # Python floats, for the float route
# The array route's coefficients, each (substitution, part, 1): the value's c0..c5;
# each gradient component's (c_a, c_b, c_c) of c_a + c_b*a + c_c*g, stacked over (a, g);
# the Hessian's diagonal (aa, gg) and ag.
_VALUE_COEFFS = c = np.moveaxis(_PART_COEFFS, -1, 0)[..., None]
_GRAD_COEFFS = np.array([(c[1], c[2]), (2.0 * c[3], c[4]), (c[4], 2.0 * c[5])])
_HESS_DIAG, _HESS_AG = np.array((2.0 * c[3], 2.0 * c[5])), c[4]
del c


def _gap_gradients(alpha: float, gamma: float, matrix: PayoffMatrix):
    """The float route of :func:`_gap_derivatives`, gradients only, on Python floats.

    The four substitutions are priced one at a time.  Returns ((d/da of the
    two gaps), (d/dg of the two gaps)).
    """
    m = matrix
    k = m.reward_cc - m.sucker_cd - m.temptation_dc + m.punishment_dd
    a, g = alpha, gamma
    states = []
    for rows in _PART_ROWS:
        (n1, n1_a, n1_g), (n2, n2_a, n2_g), (d, d_a, d_g) = (
            (
                c0 + a * (c1 + c3 * a + c4 * g) + g * (c2 + c5 * g),
                c1 + 2.0 * c3 * a + c4 * g,
                c2 + c4 * a + 2.0 * c5 * g,
            )
            for c0, c1, c2, c3, c4, c5 in rows
        )
        p1, p2 = n1 / d, n2 / d
        p1_a, p1_g = (n1_a - p1 * d_a) / d, (n1_g - p1 * d_g) / d
        p2_a, p2_g = (n2_a - p2 * d_a) / d, (n2_g - p2 * d_g) / d
        u_1 = m.sucker_cd - m.punishment_dd + k * p2
        u_2 = m.temptation_dc - m.punishment_dd + k * p1
        states.append((u_1 * p1_a + u_2 * p2_a, u_1 * p1_g + u_2 * p2_g))
    return [(u[1] - u[0], u[3] - u[2]) for u in zip(*states)]


def _substituted_states(a: np.ndarray, g: np.ndarray, hessians: bool):
    """The substituted states p = N/D with their derivatives, over flat arrays of points.

    N and D are the quadratics of ``_PART_COEFFS``, priced for all four
    substitutions in one pass.  Differentiating p*D = N once and twice gives
    D*p_i = N_i - p*D_i and D*p_ij = N_ij - p_i*D_j - p_j*D_i - p*D_ij.
    Returns p (substitution, part, point), p_d (a or g, substitution, part,
    point) and, with ``hessians``, p_dd (aa or gg, ...) and p_ag like p.  The
    quadratics are freed on return, before the payoff's stack is built.
    """
    c0, c1, c2, c3, c4, c5 = _VALUE_COEFFS
    value = c0 + a * (c1 + c3 * a + c4 * g) + g * (c2 + c5 * g)
    c_a, c_b, c_c = _GRAD_COEFFS
    grad = c_a + c_b * a + c_c * g
    num, den, num_d, den_d = value[:, :2], value[:, 2:], grad[:, :, :2], grad[:, :, 2:]
    p = num / den
    p_d = (num_d - p * den_d) / den
    if not hessians:
        return p, p_d
    hess_d, hess_ag = _HESS_DIAG, _HESS_AG
    p_dd = (hess_d[:, :, :2] - 2.0 * p_d * den_d - p * hess_d[:, :, 2:]) / den
    p_ag = (hess_ag[:, :2] - p_d[0] * den_d[1] - p_d[1] * den_d[0] - p * hess_ag[:, 2:]) / den
    return p, p_d, p_dd, p_ag


def _gap_derivatives(alpha, gamma, matrix: PayoffMatrix, hessians: bool):
    """Gradients and Hessians in (alpha, gamma) of the two payoff gaps, elementwise over arrays.

    The gaps are u_alpha1 - u_alpha0 and u_gamma1 - u_gamma0.  Returns one
    (2 or 5, 2, ...) array: entry [j][i] is derivative j of gap i, for j in
    (a, g), followed by (aa, ag, gg) with ``hessians``.  The substituted
    states come from :func:`_substituted_states`, all four at once, and go
    through the payoff as one stack.  The payoff is bilinear,
    u = P + (S-P)p1 + (T-P)p2 + k*p1*p2 with k = R - S - T + P, so
    u_i = u_1*p1_i + u_2*p2_i and u_ij = u_1*p1_ij + u_2*p2_ij +
    k*(p1_i*p2_j + p1_j*p2_i), where u_1 = S - P + k*p2 and u_2 = T - P + k*p1.
    """
    shape = np.shape(alpha)
    p, p_d, *second = _substituted_states(np.reshape(alpha, -1), np.reshape(gamma, -1), hessians)
    m = matrix
    k = m.reward_cc - m.sucker_cd - m.temptation_dc + m.punishment_dd
    p1, p2, p1_d, p2_d = p[:, 0], p[:, 1], p_d[:, :, 0], p_d[:, :, 1]
    u_1 = m.sucker_cd - m.punishment_dd + k * p2
    u_2 = m.temptation_dc - m.punishment_dd + k * p1
    derivs = u_1 * p1_d + u_2 * p2_d
    if hessians:
        p_dd, p_ag = second
        u_dd = u_1 * p_dd[:, :, 0] + u_2 * p_dd[:, :, 1] + 2.0 * k * p1_d * p2_d
        u_ag = u_1 * p_ag[:, 0] + u_2 * p_ag[:, 1] + k * (p1_d[0] * p2_d[1] + p1_d[1] * p2_d[0])
        derivs = np.array((derivs[0], derivs[1], u_dd[0], u_ag, u_dd[1]))
    return (derivs[:, 1::2] - derivs[:, ::2]).reshape(derivs.shape[:1] + (2,) + shape)


def _logistic(lam, gap):
    """The logit response 1/(1 + exp(-lam*gap)) over arrays.

    A huge lam*gap overflows to +-inf and exp to inf or 0, so the response
    saturates to exactly 0 or 1; both overflows are expected and silenced.
    Within 2**-52 of 0 the response is 1/2 to within one ulp, and there it is
    exactly 1/2: numpy's exp is one ulp low for small negative arguments,
    which would otherwise give 1/2 + 1 ulp for lam*gap in (2**-53, 1.5 * 2**-53).
    """
    with np.errstate(over="ignore"):
        x = lam * gap
        response = 1.0 / (1.0 + np.exp(-x))
    return np.where(np.abs(x) < 2.0**-52, 0.5, response)


def _sigma_vec(lam, alpha, gamma, matrix: PayoffMatrix):
    """The solver's sigma, elementwise over arrays (``lam`` may be one too).

    Returns (sigma_alpha, sigma_gamma) stacked into one (2, ...) array.
    """
    u = np.asarray(_conditional_utilities(alpha, gamma, matrix))
    return _logistic(lam, u[1::2] - u[::2])


def _sigma_derivatives(
    lam, alpha, gamma, matrix: PayoffMatrix, sigma=None, hessians: bool = True
):
    """sigma with its Jacobian rows and the Hessian (aa, ag, gg) of each component.

    With s = expit(lam*gap) and w = s*(1 - s): grad s = lam*w*grad(gap) and
    hess s = lam*w*hess(gap) + lam^2*w*(1 - 2s)*grad(gap)grad(gap)^T.  Both
    components go through as one stack: returns arrays sigma (2, ...), rows
    (2, 2, ...) with rows[i][j] = d sigma_i / d x_j and Hessians (2, 3, ...).  A
    caller that has priced the point passes its ``sigma`` (from
    :func:`_sigma_vec`) in; one that needs only the Jacobian turns ``hessians``
    off and gets None in their place.
    """
    if sigma is None:
        sigma = _sigma_vec(lam, alpha, gamma, matrix)
    gap = _gap_derivatives(alpha, gamma, matrix, hessians)
    w = lam * sigma * (1.0 - sigma)
    rows = (w * gap[:2]).swapaxes(0, 1)
    if not hessians:
        return sigma, rows, None
    v = lam * w * (1.0 - 2.0 * sigma)
    hess = w * gap[2:] + v * gap[[0, 0, 1]] * gap[[0, 1, 1]]
    return sigma, rows, hess.swapaxes(0, 1)


def _objective_derivatives(lam, alpha, gamma, matrix: PayoffMatrix, sigma=None):
    """F = |sigma(x) - x|^2 with its gradient and Hessian (aa, ag, gg).

    With r = sigma(x) - x and J = J_sigma - I: grad F = 2 J^T r and
    hess F = 2 J^T J + 2 sum_i r_i hess(sigma_i).  ``sigma``, if given, is
    :func:`_sigma_vec` at the point.  Returns F and the arrays grad (2, ...)
    and hess (3, ...).  A long flat array is priced ``KERNEL_BLOCK`` points at a time.
    """
    if np.ndim(alpha) == 1 and alpha.size > KERNEL_BLOCK:
        lam, n = np.broadcast_to(lam, alpha.shape), alpha.size
        f, grad, hess = np.empty(n), np.empty((2, n)), np.empty((3, n))
        for lo in range(0, n, KERNEL_BLOCK):
            at = slice(lo, lo + KERNEL_BLOCK)
            part = None if sigma is None else sigma[:, at]
            f[at], grad[:, at], hess[:, at] = _objective_derivatives(
                lam[at], alpha[at], gamma[at], matrix, part
            )
        return f, grad, hess
    sigma, rows, hess_s = _sigma_derivatives(lam, alpha, gamma, matrix, sigma)
    ra, rg = sigma[0] - alpha, sigma[1] - gamma
    jac = rows.copy()
    jac[0, 0] -= 1.0
    jac[1, 1] -= 1.0
    grad = 2.0 * (jac[0] * ra + jac[1] * rg)
    pairs = jac[:, [0, 0, 1]] * jac[:, [0, 1, 1]]
    return ra * ra + rg * rg, grad, 2.0 * (pairs[0] + pairs[1] + ra * hess_s[0] + rg * hess_s[1])
