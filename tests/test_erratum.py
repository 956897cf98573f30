"""Errata of the printed t-coefficient displays.

The 3-level closed tensor is built from one coefficient per eigenvalue pair,
t_ij = -(lambda_i - lambda_j)^2 / (lambda_i + lambda_j) (metric.t_coeffs),
from Dittmann's trace formula (Dittmann 1999, J. Phys. A 32, 2663). The
paper prints two displays of t_ij, and both are wrong. Their printed text
lives here only, as a fixture of what was printed; nothing under src/
evaluates it. Each test is the erratum record of one display:

  * the eigenvalue display: located, two edits, and the corrected display
    agrees with the 40-digit reference (tests/mp_reference.py);
  * the theta display: not located, and off by more than 1 relative at every
    chart of the corpus.

The third misprint, g_phi_beta1 and g_phi_beta2 without a factor sin(gamma),
is located; `closed_metric3(chart, entries="printed")` keeps that entry list,
and test_metric.test_closed_metric3_printed_variant_differs_only_in_phi_beta
holds its record.
"""

import functools
import math

import pytest

import mp_reference
from buresgeo.coset import diag_entries3
from buresgeo.metric import COORDS3, t_coeffs
from buresgeo.sampling import make_rng, random_chart3

PAIRS = ((0, 1), (0, 2), (1, 2))


def printed_theta_display(theta1, theta2):
    """(t12, t13, t23) as the theta-space display prints them."""
    c1s, s1s = math.cos(theta1) ** 2, math.sin(theta1) ** 2
    c2s, s2s = math.cos(theta2) ** 2, math.sin(theta2) ** 2
    t12 = -0.5 * (c1s - s1s * c2s) ** 2 * (
        3.0 + (1.0 - s1s * c2s) * (1.0 + c1s ** 2 * c2s ** 2)
        / (c1s ** 2 * c2s ** 2 * (c1s + s1s ** 2 * s2s * c2s))
    )
    t13 = -0.5 * (c1s - s1s * s2s) ** 2 * (
        3.0 + (1.0 - s1s * s2s) * (c2s + s1s * c1s ** 2 * s2s ** 2)
        / (s1s * c1s ** 2 * c2s ** 2 * (c1s + s1s ** 2 * s2s * c2s))
    )
    t23 = -0.5 * (
        s1s * c2s * (1.0 + 3.0 * s1s)
        + c1s / (s1s ** 3 * s2s ** 2 * c2s)
    )
    return (t12, t13, t23)


def eigenvalue_display(theta1, theta2, *, pair_edit=False, constant_edit=False):
    """(t12, t13, t23) from the eigenvalue-space display, with m_i = 1/lambda_i:

        3 / (2 (1 - Tr D^3)) [ (l_i - l_j)^2 (l_i + l_j - l_i l_j - Tr D^3 - 2)
                               + |D| (m_i - m_j)^2 (m_i + m_j - m_i m_j - 1) ]

    as printed, or with either located edit: ``pair_edit`` reads (l_i - l_j)^2
    for (m_i - m_j)^2 in the |D| term, ``constant_edit`` reads
    "+ (Tr D^3 - 4)/3" for "- Tr D^3 - 2"."""
    lam = diag_entries3(theta1, theta2)
    t3 = sum(x ** 3 for x in lam)
    q = lam[0] * lam[1] * lam[2]
    out = []
    for i, j in PAIRS:
        li, lj = lam[i], lam[j]
        mi, mj = 1.0 / li, 1.0 / lj
        const = (t3 - 4.0) / 3.0 if constant_edit else -t3 - 2.0
        pair = (li - lj) ** 2 if pair_edit else (mi - mj) ** 2
        out.append(3.0 / (2.0 * (1.0 - t3)) * (
            (li - lj) ** 2 * (li + lj - li * lj + const)
            + q * pair * (mi + mj - mi * mj - 1.0)))
    return tuple(out)


@functools.cache
def corpus():
    """200 seeded (theta1, theta2) with the reference (t12, t13, t23): at
    alpha = beta = 0 the tangents of alpha, beta1 and beta2 each excite one
    eigenvalue pair, so -g_aa of the 40-digit Hubner tensor is t_ij."""
    rng = make_rng(3)
    out = []
    diag = [COORDS3.index(c) for c in ("alpha", "beta1", "beta2")]
    for _ in range(200):
        ch = random_chart3(rng)
        g = mp_reference.metric([ch.theta1, ch.theta2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        out.append((ch.theta1, ch.theta2, tuple(-g[a][a] for a in diag)))
    return out


def rel_devs(display, **edits):
    """|display - t| / |t| for every coefficient of every corpus chart."""
    return [abs(x - t) / abs(t) for theta1, theta2, ref in corpus()
            for x, t in zip(display(theta1, theta2, **edits), ref)]


def test_the_reference_is_the_trace_form_coefficient():
    # the corpus holds what metric.t_coeffs evaluates: measured 1.9e-14 at worst,
    # where two eigenvalues lie close
    assert max(abs(x - t) / abs(t) for theta1, theta2, ref in corpus()
               for x, t in zip(t_coeffs(theta1, theta2), ref)) <= 1e-13


def test_eigenvalue_display_erratum_located():
    # with both edits the display agrees with the reference: measured 3.7e-14
    # relative over the corpus, the rounding of 1 - Tr D^3 and of close
    # eigenvalues. As printed it is off by 3.3 relative or more everywhere;
    # with the pair edit alone by up to 4.3e2, the constant edit alone 2.9e11
    assert max(rel_devs(eigenvalue_display, pair_edit=True, constant_edit=True)) <= 1e-12
    assert min(rel_devs(eigenvalue_display)) > 1.0
    for edits in ({"pair_edit": True}, {"constant_edit": True}):
        assert max(rel_devs(eigenvalue_display, **edits)) > 1.0, edits
    # t12 = -1/56 at (pi/4, pi/6), where lambda = (1/2, 3/8, 1/8)
    t12 = eigenvalue_display(math.pi / 4, math.pi / 6, pair_edit=True, constant_edit=True)[0]
    assert t12 == pytest.approx(-1.0 / 56.0, rel=1e-13)
    assert t_coeffs(math.pi / 4, math.pi / 6)[0] == pytest.approx(-1.0 / 56.0, rel=1e-13)


def test_theta_display_erratum_not_located():
    # no edit is known; every coefficient at every corpus chart is off by more
    # than 1 relative (measured 1.95 at the least)
    assert min(rel_devs(printed_theta_display)) > 1.0
