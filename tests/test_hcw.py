"""Plant dynamics, exact propagation, and the in-plane coordinate change."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybrid_rendezvous.hcw import (
    RX,
    RY,
    RZ,
    VX,
    VY,
    VZ,
    OrbitParams,
    apply_stm,
    hcw_derivative,
    hcw_stm,
    sat,
    to_zeta,
)

from conftest import (
    inplane_a0,
    inplane_b0,
    plant_of,
    rk4,
    stm_matrix,
    transform_matrix,
    transform_matrix_inv,
    zeta_a,
    zeta_b,
)

P = OrbitParams()

#: Unit roundoff of float64.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def stm_scale(n):
    """Entry scales K of the transition matrix: ``K[i, j] = w_i / w_j`` with
    ``w = 1`` for positions and ``n`` for velocities, so that every entry of
    ``hcw_stm`` is ``K[i, j]`` times a combination of 1, cos, sin and n t."""
    w = np.array([1.0, 1.0, 1.0, n, n, n])
    return w[:, None] / w[None, :]


def stm_entry_error(n, t):
    """Entrywise bound ``48 u (1 + n |t|)`` on ``|hcw_stm(t) - Phi(t)| / K``.

    cos and sin of the rounded argument n t are off by at most u n |t|
    (the rounding of n t) plus 2 u (one ulp of the library).  In units of
    K the worst entry is ``6 n (c - 1)``: 6 times that error, plus three
    roundings of operands of magnitude <= 12, i.e. 6 u n |t| + 12 u + 36 u.
    Every other entry, ``6 (s - n t)`` included, adds up to less.
    """
    return 48 * UNIT_ROUNDOFF * (1.0 + n * abs(t))


def stm_reference(p, dt):
    """Entrywise transition matrix: zeros, then one store per nonzero entry,
    each with the same expression as :func:`hcw_stm`."""
    n = p.n
    c = np.cos(n * dt)
    s = np.sin(n * dt)
    m = np.zeros((6, 6))
    m[RX, RX] = 4.0 - 3.0 * c
    m[RX, VX] = s / n
    m[RX, VY] = 2.0 * (1.0 - c) / n
    m[RY, RX] = 6.0 * (s - n * dt)
    m[RY, RY] = 1.0
    m[RY, VX] = 2.0 * (c - 1.0) / n
    m[RY, VY] = (4.0 * s - 3.0 * n * dt) / n
    m[VX, RX] = 3.0 * n * s
    m[VX, VX] = c
    m[VX, VY] = 2.0 * s
    m[VY, RX] = 6.0 * n * (c - 1.0)
    m[VY, VX] = -2.0 * s
    m[VY, VY] = 4.0 * c - 3.0
    m[RZ, RZ] = c
    m[RZ, VZ] = s / n
    m[VZ, RZ] = -n * s
    m[VZ, VZ] = c
    return m


def rk4_reference(state, t_final, steps):
    """Brute-force RK4 integration of the plant, used as an oracle."""
    return rk4(lambda x: np.array(hcw_derivative(x.tolist(), P)), state, t_final / steps, steps)


class TestOrbitParams:
    def test_defaults(self):
        assert P.n == 0.0011
        assert P.umax == 0.2
        assert P.period == pytest.approx(2 * np.pi / 0.0011)

    @pytest.mark.parametrize("bad", [{"n": 0.0}, {"n": -1.0}, {"umax": 0.0}, {"umax": -0.2}])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            OrbitParams(**bad)


class TestDerivative:
    def test_zero_at_origin(self):
        assert np.array_equal(hcw_derivative(np.zeros(6), P), np.zeros(6))

    @pytest.mark.parametrize("ry", [-1000.0, 1.0, 42.0])
    def test_along_track_offsets_are_equilibria(self, ry):
        s = np.zeros(6)
        s[RY] = ry
        assert np.array_equal(hcw_derivative(s, P), np.zeros(6))

    def test_radial_offset_acceleration(self):
        s = np.zeros(6)
        s[RX] = 1.0
        d = hcw_derivative(s, P)
        assert d[VX] == pytest.approx(3 * P.n**2, rel=1e-15)
        assert d[VY] == 0.0 and d[VZ] == 0.0

    def test_equilibria_are_exactly_along_track_offsets(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = rng.uniform(-1, 1, 6) * [1000, 1000, 1000, 1, 1, 1]
            d = np.array(hcw_derivative(s, P))
            is_eq = np.all(d == 0.0)
            should_be = (
                s[RX] == 0 and s[RZ] == 0 and s[VX] == 0 and s[VY] == 0 and s[VZ] == 0
            )
            assert is_eq == should_be

    @given(block=arrays(np.float64, (3, 6), elements=st.floats(-1e4, 1e4)))
    @settings(max_examples=100, deadline=None)
    def test_list_and_array_layouts_agree(self, block):
        # A list of floats, an ndarray row and the rows of a (6, k) array
        # give the same bits.
        from_lists = np.array([hcw_derivative(row.tolist(), P) for row in block])
        from_rows = np.array([hcw_derivative(row, P) for row in block])
        from_block = np.array(hcw_derivative(block.T, P)).T
        assert from_lists.tobytes() == from_rows.tobytes() == from_block.tobytes()


class TestStm:
    def test_identity_at_zero(self):
        assert np.allclose(stm_matrix(P, 0.0), np.eye(6), atol=0)

    def test_z_block_periodicity(self):
        m = stm_matrix(P, P.period)
        zblock = m[np.ix_([RZ, VZ], [RZ, VZ])]
        assert np.allclose(zblock, np.eye(2), atol=1e-12)

    @given(dt=st.floats(-4 * P.period, 4 * P.period, allow_nan=False))
    @example(dt=0.0)
    @example(dt=-0.0)
    @example(dt=P.period)
    @settings(max_examples=200, deadline=None)
    def test_matches_entrywise_reference(self, dt):
        # The one format, the tuple apply_stm reads: 36 Python floats, row by
        # row, byte for byte the entrywise reference, so signed zeros count.
        m = hcw_stm(P.n, dt)
        assert type(m) is tuple and len(m) == 36
        assert all(type(x) is float for x in m)
        assert np.array(m).tobytes() == stm_reference(P, dt).tobytes()
        assert np.array_equal(stm_matrix(P, dt), stm_reference(P, dt))

    @given(
        a=st.floats(-2 * P.period, 2 * P.period, allow_nan=False),
        b=st.floats(-2 * P.period, 2 * P.period, allow_nan=False),
    )
    @example(a=11365.0, b=-11356.0)
    @settings(max_examples=100, deadline=None)
    def test_group_property(self, a, b):
        # Elementwise error model (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., section 3.5).  With computed
        # factors X = Phi(a) + E_a and Y = Phi(b) + E_b:
        #   |fl(X Y) - X Y| <= gamma_6 |X| |Y|,  gamma_k = k u / (1 - k u);
        #   X Y - Phi(a + b) = E_a Y + X E_b - E_a E_b.
        # |E_t| <= e_t K (stm_entry_error), and K @ K = 6 K.  The right side
        # adds E_{a+b} and the rounding of the argument a + b, which moves
        # each entry by at most u |a + b| * 12 n K (|d Phi / dt| <= 12 n K).
        u = UNIT_ROUNDOFF
        gamma_6 = 6 * u / (1 - 6 * u)
        k = stm_scale(P.n)
        x, y = stm_matrix(P, a), stm_matrix(P, b)
        e_a, e_b = stm_entry_error(P.n, a), stm_entry_error(P.n, b)
        e_ab = stm_entry_error(P.n, a + b) + 12 * u * P.n * abs(a + b)
        bound = (
            gamma_6 * np.abs(x) @ np.abs(y)
            + e_a * k @ np.abs(y)
            + e_b * np.abs(x) @ k
            + (6 * e_a * e_b + e_ab) * k
        )
        assert (np.abs(x @ y - stm_matrix(P, a + b)) <= bound).all()

    def test_secular_drift_against_rk4_oracle(self):
        # A pure radial offset r_x0 with zero relative velocity has mean
        # radial offset 4 r_x0, hence drifts along-track by
        # -(3/2) n T * 4 r_x0 = -12 pi r_x0 per orbit.
        s0 = np.zeros(6)
        s0[RX] = 1.0
        oracle = rk4_reference(s0, P.period, 20_000)
        prop = stm_matrix(P, P.period) @ s0
        assert np.allclose(prop, oracle, atol=1e-8)
        assert prop[RY] == pytest.approx(-12 * np.pi, rel=1e-12)

    def test_matches_rk4_oracle_generic_state(self):
        rng = np.random.default_rng(3)
        s0 = rng.uniform(-1, 1, 6) * [500, 500, 500, 0.5, 0.5, 0.5]
        t = 0.37 * P.period
        oracle = rk4_reference(s0, t, 20_000)
        prop = stm_matrix(P, t) @ s0
        assert np.max(np.abs(prop - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_backward_propagation_inverts_forward(self):
        rng = np.random.default_rng(4)
        s0 = rng.uniform(-1, 1, 6)
        dt = 1234.5
        back = stm_matrix(P, -dt) @ (stm_matrix(P, dt) @ s0)
        assert np.allclose(back, s0, atol=1e-12)

    def test_z_energy_conserved_over_period(self):
        s = np.zeros(6)
        s[RZ], s[VZ] = 300.0, 0.2
        v0 = P.n**2 * s[RZ] ** 2 + s[VZ] ** 2
        for frac in np.linspace(0.1, 1.0, 10):
            sf = stm_matrix(P, frac * P.period) @ s
            vf = P.n**2 * sf[RZ] ** 2 + sf[VZ] ** 2
            assert abs(vf - v0) <= 1e-12 * v0


#: Plant components: signed zeros, and finite values of magnitude 1e-100 to
#: 1e100, whose products with the nonzero entries of ``hcw_stm`` for ``dt``
#: of 0 or 1e-3 s to one period neither underflow nor overflow.
PLANT_FLOATS = st.sampled_from([0.0, -0.0]) | st.floats(-1e100, 1e100).filter(
    lambda x: abs(x) >= 1e-100
)


class TestApplyStm:
    @given(
        s=st.lists(PLANT_FLOATS, min_size=6, max_size=6),
        dt=st.just(0.0) | st.floats(1e-3, P.period),
    )
    # n dt = 1.36 rad: with the in-plane state at +0.0 every v_y product is
    # -0.0, which a sum that only skips the structural zeros returns.
    @example(s=[0.0, 0.0, 500.0, 0.0, 0.0, 0.0], dt=1234.5)
    @example(s=[-0.0] * 6, dt=P.period / 3)
    @settings(max_examples=300, deadline=None)
    def test_within_rounding_of_blas_and_zero_rows_positive(self, s, dt):
        # Both sums are within gamma_6 sum_j |m_ij s_j| of the exact row
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        # section 3.1), whatever order the BLAS kernel adds in.
        u = UNIT_ROUNDOFF
        gamma_6 = 6 * u / (1 - 6 * u)
        m = stm_matrix(P, dt)
        out = np.array(apply_stm(hcw_stm(P.n, dt), s))
        bound = 2 * gamma_6 * (np.abs(m) @ np.abs(np.array(s)))
        assert (np.abs(out - m @ np.array(s)) <= bound).all()
        assert all(np.copysign(1.0, x) == 1.0 for x in out if x == 0.0)


class TestSat:
    @pytest.mark.parametrize(
        "u,umax,expected",
        [(0.132, 0.2, 0.132), (0.5, 0.2, 0.2), (-0.3, 0.2, -0.2), (0.0, 0.2, 0.0)],
    )
    def test_sat_examples(self, u, umax, expected):
        assert sat(u, umax) == expected

    @given(st.floats(-10, 10, allow_nan=False), st.floats(0.01, 5, allow_nan=False))
    @settings(max_examples=200)
    def test_sat_sector_property(self, u, umax):
        s = sat(u, umax)
        assert abs(s) <= umax
        assert (u - s) * s >= 0.0
        assert sat(-u, umax) == -s


class TestZetaTransform:
    def test_reference_initial_condition(self):
        # (r_x, v_x, r_y, v_y) = (-60, 0, 1000, 0) maps to (180, 0, 1000, 0.396).
        zeta = to_zeta(plant_of([-60.0, 0.0, 1000.0, 0.0]), P)
        assert zeta[0] == pytest.approx(180.0, abs=1e-12)
        assert zeta[1] == 0.0
        assert zeta[2] == pytest.approx(1000.0, abs=1e-12)
        assert zeta[3] == pytest.approx(0.396, abs=1e-12)

    def test_zero_maps_to_zero(self):
        assert np.array_equal(to_zeta(plant_of(np.zeros(4)), P), np.zeros(4))

    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_round_trip(self, vals):
        s = np.array(vals)
        back = transform_matrix_inv(P.n) @ to_zeta(plant_of(s), P)
        assert np.max(np.abs(back - s)) <= 1e-12 * max(1.0, np.max(np.abs(s)))

    def test_matrix_and_function_agree(self):
        # Column j of T is to_zeta of the j-th unit vector, bit for bit.  On a
        # general state the product T @ s rounds differently from to_zeta, so
        # that comparison keeps a tolerance.
        t = transform_matrix(P.n)
        for j, e in enumerate(np.eye(4)):
            assert np.array_equal(t[:, j], to_zeta(plant_of(e), P))
        rng = np.random.default_rng(11)
        s = rng.uniform(-100, 100, 4)
        assert np.allclose(to_zeta(plant_of(s), P), t @ s, atol=1e-12)

    def test_inverse_is_exact(self):
        t = transform_matrix(P.n)
        tinv = transform_matrix_inv(P.n)
        assert np.max(np.abs(t @ tinv - np.eye(4))) <= 1e-12

    def test_conjugation_gives_decoupled_blocks(self):
        t = transform_matrix(P.n)
        tinv = transform_matrix_inv(P.n)
        assert np.max(np.abs(t @ inplane_a0(P.n) @ tinv - zeta_a(P.n))) <= 1e-12
        assert np.max(np.abs(t @ inplane_b0() - zeta_b(P.n))) <= 1e-12

    def test_transformed_flow_is_oscillator_plus_drift(self):
        # xdot = y, ydot = -n^2 x, alphadot = beta, betadot = 0.
        rng = np.random.default_rng(5)
        s = rng.uniform(-100, 100, 4)
        zeta = to_zeta(plant_of(s), P)
        dzeta = to_zeta(plant_of(inplane_a0(P.n) @ s), P)
        expected = np.array(
            [zeta[1], -P.n**2 * zeta[0], zeta[3], 0.0]
        )
        assert np.max(np.abs(dzeta - expected)) <= 1e-12 * max(1.0, np.max(np.abs(zeta)))
