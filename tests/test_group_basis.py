import numpy as np
import pytest

from fratio import (
    CoefficientVector,
    FiniteAbelianGroup,
    Signal,
    check_boundedness,
    make_dft,
    make_gabor_block,
    make_haar,
    make_wht,
    parse_system,
)
from fratio.systems import SYSTEMS, OrthonormalSystem, system_on_group

from conftest import complex_gaussian


def naive_character_matrix(group):
    """Phi[x, gamma] = M^{-1/2} exp(2 pi i sum_i gamma_i x_i / n_i)."""
    M = group.size
    phi = np.empty((M, M), dtype=np.complex128)
    for x in range(M):
        xt = group.index_to_tuple(x)
        for g in range(M):
            gt = group.index_to_tuple(g)
            phase = sum(gi * xi / n for gi, xi, n in zip(gt, xt, group.factors))
            phi[x, g] = np.exp(2j * np.pi * phase) / np.sqrt(M)
    return phi


class TestGroup:
    def test_size_and_indexing_bijection(self):
        g = FiniteAbelianGroup((2, 3, 4))
        assert g.size == 24
        seen = {g.tuple_to_index(g.index_to_tuple(i)) for i in range(24)}
        assert seen == set(range(24))

    def test_last_factor_fastest(self):
        g = FiniteAbelianGroup((2, 3))
        assert g.index_to_tuple(0) == (0, 0)
        assert g.index_to_tuple(1) == (0, 1)
        assert g.index_to_tuple(3) == (1, 0)

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0, 3))
        with pytest.raises(ValueError):
            FiniteAbelianGroup(())


class TestDft:
    def test_trivial_group_identity(self):
        system = make_dft(FiniteAbelianGroup((1,)))
        f = Signal(system.group, [3.0 + 1j])
        c = system.analyze(f)
        assert np.allclose(c.entries, f.values)

    def test_delta_flat_modulus(self):
        system = make_dft(FiniteAbelianGroup((4,)))
        delta = np.zeros(4)
        delta[0] = 1.0
        c = system.analyze(Signal(system.group, delta))
        assert np.allclose(np.abs(c.entries), 0.5, atol=1e-12)

    def test_matches_character_sum_oracle(self):
        group = FiniteAbelianGroup((2, 3))
        system = make_dft(group)
        phi = naive_character_matrix(group)
        for seed in range(20):
            f = complex_gaussian(group, seed)
            oracle = phi.conj().T @ f.values
            got = system.analyze(f).entries
            assert np.max(np.abs(got - oracle)) < 1e-10

    def test_tau_exact(self):
        system = make_dft(FiniteAbelianGroup((4, 4)))
        assert system.tau == pytest.approx(0.25, abs=0)


class TestWht:
    def test_base_case(self):
        system = make_wht(1)
        phi = system.basis_matrix()
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(phi, expected, atol=1e-12)

    def test_character_signal_single_spike(self):
        system = make_wht(3)
        phi = system.basis_matrix()
        j = 5
        f = Signal(system.group, np.sqrt(8) * phi[:, j])
        c = system.analyze(f).entries
        expected = np.zeros(8)
        expected[j] = np.sqrt(8)
        assert np.allclose(c, expected, atol=1e-10)

    def test_sign_pattern_oracle(self):
        system = make_wht(2)
        phi = system.basis_matrix()
        for j in range(4):
            for x in range(4):
                jt = system.group.index_to_tuple(j)
                xt = system.group.index_to_tuple(x)
                sign = (-1) ** (sum(a * b for a, b in zip(jt, xt)))
                assert phi[x, j] == pytest.approx(sign / 2.0, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_wht(0)


class TestGaborBlock:
    def test_single_row_matches_dft(self):
        gb = make_gabor_block(8, 1)
        dft = make_dft(FiniteAbelianGroup((8,)))
        f = complex_gaussian(FiniteAbelianGroup((8,)), 3)
        fg = Signal(gb.group, f.values)
        assert np.allclose(gb.analyze(fg).entries, dft.analyze(f).entries, atol=1e-12)

    def test_tau_and_boundedness_failure(self):
        gb = make_gabor_block(4, 3)
        assert gb.tau == pytest.approx(0.5)
        report = check_boundedness(gb)
        assert report.bound == pytest.approx(12**-0.5)
        assert not report.passes

    def test_rowwise_dft_oracle(self):
        gb = make_gabor_block(8, 4)
        for seed in range(10):
            f = complex_gaussian(gb.group, seed)
            got = gb.analyze(f).entries.reshape(8, 4)
            oracle = np.fft.fft(f.values.reshape(8, 4), axis=0, norm="ortho")
            assert np.max(np.abs(got - oracle)) < 1e-10


class TestHaar:
    def test_smallest_case(self):
        system = make_haar(2)
        phi = system.basis_matrix()
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(phi, expected, atol=1e-12)
        assert system.tau == pytest.approx(2**-0.5)

    def test_constant_signal_single_coefficient(self):
        system = make_haar(8)
        c = system.analyze(Signal(system.group, np.ones(8))).entries
        assert abs(c[0]) == pytest.approx(np.sqrt(8))
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_gram_identity(self):
        phi = make_haar(4).basis_matrix()
        gram = phi.conj().T @ phi
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_rejects_non_powers_of_two(self):
        with pytest.raises(ValueError):
            make_haar(12)


class TestAnalyzeSynthesize:
    def test_basis_function_maps_to_unit_vector(self, small_system):
        phi = small_system.basis_matrix()
        j = small_system.size // 2
        c = small_system.analyze(Signal(small_system.group, phi[:, j])).entries
        expected = np.zeros(small_system.size)
        expected[j] = 1.0
        assert np.allclose(c, expected, atol=1e-10)

    def test_zero_signal(self, small_system):
        c = small_system.analyze(Signal(small_system.group, np.zeros(small_system.size)))
        assert c.l2 == 0.0
        f = small_system.synthesize(np.zeros(small_system.size))
        assert f.l2 == 0.0

    def test_domain_mismatch(self):
        system = make_dft(FiniteAbelianGroup((4,)))
        other = Signal(FiniteAbelianGroup((5,)), np.ones(5))
        with pytest.raises(ValueError):
            system.analyze(other)
        with pytest.raises(ValueError):
            system.synthesize(np.ones(5))

    def test_analyze_matches_dense_oracle_z6(self):
        group = FiniteAbelianGroup((6,))
        system = make_dft(group)
        phi = naive_character_matrix(group)
        f = complex_gaussian(group, 11)
        oracle = phi.conj().T @ f.values
        assert np.max(np.abs(system.analyze(f).entries - oracle)) < 1e-10

    def test_roundtrip(self, small_system):
        for seed in range(50):
            f = complex_gaussian(small_system.group, seed)
            back = small_system.synthesize(small_system.analyze(f))
            assert np.linalg.norm(back.values - f.values) <= 1e-10 * f.l2

    def test_parseval(self, small_system):
        for seed in range(100):
            f = complex_gaussian(small_system.group, 1000 + seed)
            assert abs(small_system.analyze(f).l2 - f.l2) <= 1e-10 * f.l2

    def test_orthonormality_gram(self, small_system):
        phi = small_system.basis_matrix()
        gram = phi.conj().T @ phi
        assert np.max(np.abs(gram - np.eye(small_system.size))) < 1e-10

    def test_tau_matches_dense_maximum(self, small_system):
        phi = small_system.basis_matrix()
        assert small_system.tau == pytest.approx(np.max(np.abs(phi)), abs=1e-12)

    def test_constant_modulus_entries(self):
        for system in (make_dft(FiniteAbelianGroup((3, 4))), make_wht(4)):
            phi = system.basis_matrix()
            assert np.allclose(np.abs(phi), system.size**-0.5, atol=1e-12)


class TestBoundedness:
    def test_dft_passes(self):
        report = check_boundedness(make_dft(FiniteAbelianGroup((16,))))
        assert report.tau == pytest.approx(0.25)
        assert report.passes

    def test_wht_passes(self):
        report = check_boundedness(make_wht(4))
        assert report.tau == pytest.approx(0.25)
        assert report.passes


class TestParseSystem:
    @pytest.mark.parametrize(
        "spec,expected_size",
        [("dft:4x6", 24), ("wht:5", 32), ("gabor:N=16,T=8", 128), ("haar:64", 64)],
    )
    def test_specs(self, spec, expected_size):
        system = parse_system(spec)
        assert system.size == expected_size
        assert system.system_id == spec

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            parse_system("mystery:3")

    @pytest.mark.parametrize("spec", ["gabor:N=16", "gabor:N16,T=8", "gabor:16x8", "haar:x", "wht:", "dft:4x"])
    def test_malformed_parameters_are_a_value_error(self, spec):
        with pytest.raises(ValueError):
            parse_system(spec)


def test_coefficient_vector_norms():
    c = CoefficientVector("dft:4", [3 + 4j, 0, 0, 1])
    assert c.l1 == pytest.approx(6.0)
    assert c.l2 == pytest.approx(np.sqrt(26.0))
    assert c.linf == pytest.approx(5.0)


def test_group_size_is_exact_beyond_int64():
    assert FiniteAbelianGroup((2**40, 2**40)).size == 2**80
    assert type(FiniteAbelianGroup((3, 5)).size) is int


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("lead", [(), (3,)], ids=["1-D", "stacked"])
def test_wht_butterfly_matches_fft_per_axis_bitwise(n, lead):
    # the character transform on Z_2^n is np.fft along each factor
    wht = make_wht(n)
    dft = make_dft(FiniteAbelianGroup((2,) * n))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(lead + (2**n,)) + 1j * rng.standard_normal(lead + (2**n,))
    assert wht._analyze_array(x).tobytes() == dft._analyze_array(x).tobytes()
    assert wht._synthesize_array(x).tobytes() == dft._synthesize_array(x).tobytes()


# per label, one spec and the groups the system cannot live on (dft lives on
# every group); a label added to SYSTEMS without entries here fails both tests
_SPEC = {"dft": "dft:4x6", "wht": "wht:5", "gabor": "gabor:N=16,T=8", "haar": "haar:64"}
_WRONG_GROUPS = {"dft": [], "wht": [(2, 3), (4,)], "gabor": [(8,), (2, 2, 2)], "haar": [(4, 4), (6,)]}


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_system_on_group_rebuilds_the_parsed_system(label):
    system = parse_system(_SPEC[label])
    assert type(system) is SYSTEMS[label] and system.label == label
    assert system_on_group(label, system.group).system_id == _SPEC[label]


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_system_on_group_rejects_a_group_the_system_cannot_live_on(label):
    for factors in _WRONG_GROUPS[label]:
        group = FiniteAbelianGroup(factors)
        with pytest.raises(ValueError):
            system_on_group(label, group)
        with pytest.raises(ValueError):
            SYSTEMS[label](group)


def test_system_on_group_rejects_an_unknown_label():
    with pytest.raises(ValueError, match="unknown system label"):
        system_on_group("mystery", FiniteAbelianGroup((4,)))


def test_stream_codes_are_distinct():
    # the codec maps a stream's code back to its label; a repeated code would lose one
    assert len({cls.code for cls in SYSTEMS.values()}) == len(SYSTEMS)


def test_a_system_writes_one_transform_or_both_cascades():
    # the base class makes analysis and synthesis of _transform; only a system
    # whose two directions are different algorithms overrides them instead
    assert {"_transform", "_analyze_array", "_synthesize_array"} <= vars(OrthonormalSystem).keys()
    for label, cls in SYSTEMS.items():
        own = vars(cls).keys() & {"_transform", "_analyze_array", "_synthesize_array"}
        assert own == ({"_analyze_array", "_synthesize_array"} if label == "haar" else {"_transform"}), label
