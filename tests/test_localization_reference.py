"""``localization_check`` against the algorithm it replaced, bit for bit.

The reference below is the check as it was written with its own transforms:
``np.fft.fftn`` for both readings and one ``np.linalg.norm`` per slice in a
Python loop, with the first strict maximum winning.  Every report field is
compared as ``float.hex``, and the slice and row-wise transforms byte for
byte (so signed zeros count), on every split of each shape.
"""
import numpy as np
import pytest

from fratio import FiniteAbelianGroup, ProductDecomposition, Signal, localization_check
from fratio.localization import LocalizationReport, slice_transforms
from fratio.systems import make_dft

SHAPES = [(4, 3, 5), (8, 8, 64), (256, 16), (64, 64), (8, 4), (6, 4), (2, 2, 3, 2), (5, 4), (7, 9, 3), (16, 16, 16), (3, 1, 5)]
CASES = [(shape, split) for shape in SHAPES for split in range(1, len(shape))]


def _ratio(v: np.ndarray) -> float:
    return float(np.sum(np.abs(v))) / float(np.linalg.norm(v))


def _reference_check(f: Signal, d: ProductDecomposition, transform: str, rel_tol: float = 1e-9) -> LocalizationReport:
    shaped = f.values.reshape(f.group.shape)
    rowwise = np.fft.fftn(shaped, axes=tuple(range(d.h_count)), norm="ortho").reshape(-1)
    global_coeffs = np.fft.fftn(shaped, norm="ortho").reshape(-1) if transform == "full" else rowwise
    global_fr = _ratio(global_coeffs)
    hats = rowwise.reshape(d.h_size, d.k_size).T.copy()
    l1s = np.abs(hats).sum(axis=1)
    max_slice_fr, achieving_k, skipped = -np.inf, -1, 0
    for k in range(d.k_size):
        l2 = float(np.linalg.norm(hats[k]))
        if l2 == 0.0:
            skipped += 1
            continue
        fr_k = float(l1s[k]) / l2
        if fr_k > max_slice_fr:
            max_slice_fr, achieving_k = fr_k, k
    lower_bound = global_fr / np.sqrt(d.k_size)
    return LocalizationReport(
        max_slice_fr=float(max_slice_fr),
        global_fr=float(global_fr),
        lower_bound=float(lower_bound),
        holds=bool(max_slice_fr >= lower_bound - rel_tol * global_fr),
        achieving_k=achieving_k,
        transform=transform,
        skipped_zero_slices=skipped,
    )


def _fields(report: LocalizationReport) -> dict:
    return {key: (value.hex() if isinstance(value, float) else value) for key, value in vars(report).items()}


def _signals(group: FiniteAbelianGroup, d: ProductDecomposition, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
    row_delta = np.zeros((d.h_size, d.k_size), dtype=np.complex128)
    row_delta[:, d.k_size // 2] = gaussian[: d.h_size]
    third_zero = np.where(rng.random(group.size) < 1 / 3, 0.0, gaussian)
    # each part +0.0 or -0.0 at random in about half of the entries
    re, im = gaussian.real.copy(), gaussian.imag.copy()
    for part in (re, im):
        zeros = rng.random(group.size) < 0.5
        part[zeros] = np.where(rng.random(group.size) < 0.5, 0.0, -0.0)[zeros]
    return {
        "random": gaussian,
        "rowdelta": row_delta.reshape(-1),
        "third_zero": third_zero,
        "signed_zeros": re + 1j * im,
    }


@pytest.mark.parametrize("shape,split", CASES, ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_reports_equal_the_reference(shape, split):
    group = FiniteAbelianGroup(shape)
    d = ProductDecomposition(group, split)
    for name, values in _signals(group, d, seed=sum(shape) + split).items():
        f = Signal(group, values)
        for transform in ("rowwise", "full"):
            expected = _fields(_reference_check(f, d, transform))
            assert _fields(localization_check(f, d, transform=transform)) == expected, (name, transform)


@pytest.mark.parametrize("shape,split", CASES, ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_transforms_equal_fftn_byte_for_byte(shape, split):
    group = FiniteAbelianGroup(shape)
    d = ProductDecomposition(group, split)
    signals = _signals(group, d, seed=sum(shape) + split)
    # only signed zeros: the sign of every zero in the output counts
    signals["only_signed_zeros"] = signals["signed_zeros"] * 0.0
    for name, values in signals.items():
        f = Signal(group, values)
        shaped = f.values.reshape(shape)
        rowwise = np.fft.fftn(shaped, axes=tuple(range(split)), norm="ortho").reshape(-1)
        assert slice_transforms(f, d).T.reshape(-1).tobytes() == rowwise.tobytes(), name
        assert slice_transforms(f, d).tobytes() == rowwise.reshape(d.h_size, d.k_size).T.tobytes(), name
        full = make_dft(group)._analyze_array(f.values)
        assert full.tobytes() == np.fft.fftn(shaped, norm="ortho").reshape(-1).tobytes(), name


def test_constant_signal_ties_go_to_the_first_slice():
    group = FiniteAbelianGroup((5, 4))
    d = ProductDecomposition(group, 1)
    report = localization_check(Signal(group, np.ones(20)), d, transform="rowwise")
    assert report.achieving_k == 0
    assert _fields(report) == _fields(_reference_check(Signal(group, np.ones(20)), d, "rowwise"))


def test_equal_slices_report_the_first():
    group = FiniteAbelianGroup((6, 4))
    d = ProductDecomposition(group, 1)
    rng = np.random.default_rng(8)
    values = np.zeros((6, 4), dtype=np.complex128)
    values[:, 1] = values[:, 3] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    values[:, 2] = np.ones(6)  # ratio 1, below the two equal slices
    f = Signal(group, values.reshape(-1))
    for transform in ("rowwise", "full"):
        report = localization_check(f, d, transform=transform)
        assert report.achieving_k == 1
        assert report.skipped_zero_slices == 1
        assert _fields(report) == _fields(_reference_check(f, d, transform))


def test_slices_whose_squares_would_underflow_are_measured():
    # f = x on every slice's h = 0: each slice transform has entries x/2,
    # whose squares underflow unscaled; the check scales f by a power of two
    # first, so it reports exactly what it reports on 2^540 f
    group = FiniteAbelianGroup((4, 4))
    d = ProductDecomposition(group, 1)
    values = np.zeros((4, 4))
    values[0, :] = 2.3e-162
    f = Signal(group, values.reshape(-1))
    for transform in ("rowwise", "full"):
        report = localization_check(f, d, transform=transform)
        assert (report.achieving_k, report.skipped_zero_slices, report.holds) == (0, 0, True)
        assert report.max_slice_fr == pytest.approx(2.0, rel=1e-15)
        assert _fields(report) == _fields(_reference_check(Signal(group, f.values * 2.0**540), d, transform))


def test_slices_whose_transforms_would_overflow_are_measured():
    group = FiniteAbelianGroup((4, 3))
    d = ProductDecomposition(group, 1)
    values = np.zeros((4, 3))
    values[0, 0] = 1.7e308  # unscaled: finite transform entries, but l1 = l2 = inf
    values[:, 1] = 1e308  # unscaled: the transform itself overflows, to inf and NaN
    values[:, 2] = np.arange(1.0, 5.0)  # subnormal once f is scaled, but not a zero slice
    f = Signal(group, values.reshape(-1))
    with np.errstate(over="raise", invalid="raise"):
        for transform in ("rowwise", "full"):
            report = localization_check(f, d, transform=transform)
            assert (report.achieving_k, report.max_slice_fr, report.skipped_zero_slices, report.holds) == (0, 2.0, 0, True)
            # the reference counts the subnormal slice as zero, as the check did before it scaled each slice
            expected = _reference_check(Signal(group, f.values * 2.0**-1024), d, transform)
            assert _fields(report) == _fields(expected) | {"skipped_zero_slices": 0}


@pytest.mark.parametrize("x", [1e-160, 1e-170, 1e-300])
def test_a_slice_far_smaller_than_the_signal_is_measured(x):
    # slice 0 is a character (ratio 1); slice 1 is x on one point (ratio
    # sqrt 8), with squares that underflow next to slice 0's scale
    group = FiniteAbelianGroup((8, 2))
    d = ProductDecomposition(group, 1)
    values = np.zeros((8, 2), dtype=np.complex128)
    values[:, 0] = np.exp(2j * np.pi * 3 * np.arange(8) / 8)
    values[0, 1] = x
    report = localization_check(Signal(group, values.reshape(-1)), d)
    assert (report.achieving_k, report.skipped_zero_slices) == (1, 0)
    assert report.max_slice_fr == pytest.approx(np.sqrt(8), rel=1e-15)


@pytest.mark.parametrize("alpha", [2.0**-600, 2.0**600, 1e-160, 1e160], ids=["2^-600", "2^600", "1e-160", "1e160"])
def test_reports_do_not_depend_on_the_scale(alpha):
    # a power of two scales every value exactly, so the report keeps its
    # bits; other scales round each value once, which may break a tie
    # between slices of equal ratio either way
    exact = np.frexp(alpha)[0] == 0.5
    for shape, split in CASES:
        group = FiniteAbelianGroup(shape)
        d = ProductDecomposition(group, split)
        for name, values in _signals(group, d, seed=sum(shape) + split).items():
            for transform in ("rowwise", "full"):
                report = localization_check(Signal(group, alpha * values), d, transform=transform)
                expected = localization_check(Signal(group, values), d, transform=transform)
                if exact:
                    assert _fields(report) == _fields(expected), (shape, split, name, transform)
                    continue
                for key, value in vars(expected).items():
                    if isinstance(value, float):
                        assert getattr(report, key) == pytest.approx(value, rel=1e-12), (shape, split, name, key)
                    elif key != "achieving_k":
                        assert getattr(report, key) == value, (shape, split, name, key)
