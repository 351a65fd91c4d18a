import math

import numpy as np
import pytest

from swarmeq import (
    ExistenceRegime,
    LinearPotential,
    PowerLawKernel,
    RegularizedQanrKernel,
    ShiftedKernel,
    TabulatedKernel,
    TabulatedPotential,
    ZeroPotential,
    classify_existence,
)


class TestPowerLaw:
    def test_value(self):
        assert PowerLawKernel(2.0)(3.0) == pytest.approx(4.5, abs=0)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            PowerLawKernel(0.0)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            PowerLawKernel(math.nan)

    def test_monotone_in_distance(self, rng):
        for p in (0.5, 1.0, 2.0, 8.0):
            k = PowerLawKernel(p)
            xs = np.sort(rng.uniform(0.01, 5.0, 40))
            vals = k(xs)
            assert np.all(np.diff(vals) > 0)


class TestRegularizedQanr:
    def test_origin_value(self):
        assert RegularizedQanrKernel(0.3)(0.0) == pytest.approx(-0.3, abs=1e-15)

    def test_seam_value_from_both_branches(self):
        eps = 0.3
        k = RegularizedQanrKernel(eps)
        outer = 0.5 * eps**2 + 2 * (-eps)
        inner = 0.5 * eps**2 + 2 * (-eps / 2 - eps**2 / (2 * eps))
        assert abs(outer - inner) <= 1e-14
        assert k(eps) == pytest.approx(-0.555, abs=1e-14)

    def test_seam_is_c1(self):
        k = RegularizedQanrKernel(0.3)
        for h in (1e-3, 1e-4, 1e-5):
            right = (k(0.3 + h) - k(0.3)) / h
            left = (k(0.3) - k(0.3 - h)) / h
            assert abs(right - left) <= 10 * h

    def test_rejects_bad_width(self):
        for eps in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                RegularizedQanrKernel(eps)


class TestEvenness:
    def test_all_variants_even(self, rng):
        table = TabulatedKernel([0.0, 1.0, 2.0, 5.0], [1.0, -0.5, 2.0, 0.3])
        kernels = [
            PowerLawKernel(1.7),
            RegularizedQanrKernel(0.4),
            ShiftedKernel(PowerLawKernel(2.0), -3.0),
            table,
        ]
        xs = rng.uniform(-4.0, 4.0, 64)
        for k in kernels:
            np.testing.assert_array_equal(k(xs), k(-xs))


class TestTabulated:
    def test_out_of_range(self):
        k = TabulatedKernel([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="range"):
            k(1.5)

    def test_interpolates(self):
        k = TabulatedKernel([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
        assert k(0.5) == pytest.approx(1.0)
        assert k(-0.5) == pytest.approx(1.0)

    def test_from_csv_with_and_without_header(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("0.0,1.0\n1.0,2.0\n2.0,0.5\n")
        headed = tmp_path / "headed.csv"
        headed.write_text("displacement,value\n0.0,1.0\n1.0,2.0\n2.0,0.5\n")
        for path in (plain, headed):
            k = TabulatedKernel.from_csv(path)
            assert k(1.0) == pytest.approx(2.0)

    def test_from_csv_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\noops,row\n")
        with pytest.raises(ValueError, match="malformed"):
            TabulatedKernel.from_csv(bad)

    def test_from_csv_tolerates_one_header_line_only(self, tmp_path):
        bad = tmp_path / "two-headers.csv"
        bad.write_text("x,y\nfoo,bar\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="malformed row \\['foo', 'bar'\\]"):
            TabulatedKernel.from_csv(bad)

    @pytest.mark.parametrize("table", [TabulatedKernel, TabulatedPotential])
    def test_repeated_abscissa_rejected(self, table):
        # at a repeated abscissa interpolation jumps (the kernel read 3.0 at 1
        # and 0.999999 just below) and a potential's slope divides by zero
        with pytest.raises(ValueError, match="abscissa 1.0 is repeated"):
            table([0.0, 1.0, 2.0, 1.0], [0.0, 1.0, 4.0, 3.0])

    @pytest.mark.parametrize("table", [TabulatedKernel, TabulatedPotential])
    @pytest.mark.parametrize("xs,ys", [
        ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 1.0]),
        ([0.0, 1.0, math.inf], [0.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, -math.inf, 1.0]),
    ], ids=["nan-value", "nan-abscissa", "inf-abscissa", "inf-value"])
    def test_non_finite_entry_rejected(self, table, xs, ys):
        with pytest.raises(ValueError, match="finite"):
            table(xs, ys)


class TestExternalPotentials:
    def test_zero(self):
        v = ZeroPotential()
        assert v(3.7) == 0.0
        assert v.derivative(3.7) == 0.0

    def test_linear(self):
        v = LinearPotential(0.1)
        assert v(2.0) == pytest.approx(0.2)
        assert v(0.0) == 0.0
        assert v.derivative(5.0) == pytest.approx(0.1)

    def test_linear_rejects_negative_slope(self):
        with pytest.raises(ValueError):
            LinearPotential(-0.5)

    def test_linear_rejects_nan_slope(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LinearPotential(math.nan)

    def test_tabulated_potential(self, tmp_path):
        v = TabulatedPotential([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert v(0.5) == pytest.approx(0.5)
        assert v.derivative(1.5) == pytest.approx(3.0)  # slope of the [1, 2] segment
        assert v.derivative(0.25) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="range"):
            v(2.5)
        path = tmp_path / "v.csv"
        path.write_text("x,value\n0,0\n1,1\n2,4\n")
        assert TabulatedPotential.from_csv(path)(1.0) == pytest.approx(1.0)


class TestClassifyExistence:
    def test_power_law_growth_wins(self):
        out = classify_existence(PowerLawKernel(2.0), nu=0.5, f_d=1.0,
                                 probe_radii=[10.0, 100.0, 1000.0])
        assert out is ExistenceRegime.GROWTH_SUFFICIENT

    def test_half_slope_is_diffusion_dominated(self):
        nu, f_d = 0.1, 1.0
        radii = np.geomspace(2.0, 2000.0, 40)
        table = TabulatedKernel(radii, 0.5 * 2 * f_d * nu * np.log(radii))
        out = classify_existence(ShiftedKernel(table, 0.0), nu, f_d,
                                 probe_radii=[10.0, 100.0, 1000.0])
        assert out is ExistenceRegime.DIFFUSION_DOMINATED

    def test_exact_threshold_is_inconclusive(self):
        nu, f_d = 0.1, 1.0
        probes = [10.0, 100.0, 1000.0]
        table = TabulatedKernel(probes, 2 * f_d * nu * np.log(probes))
        out = classify_existence(table, nu, f_d, probe_radii=probes)
        assert out is ExistenceRegime.INCONCLUSIVE

    def test_band_is_configurable(self):
        nu, f_d = 0.1, 1.0
        probes = [10.0, 100.0, 1000.0]
        # 3% above the sharp constant: inconclusive at the default 5% band,
        # decisive with a 1% band
        table = TabulatedKernel(probes, 1.03 * 2 * f_d * nu * np.log(probes))
        assert classify_existence(table, nu, f_d, probes) is ExistenceRegime.INCONCLUSIVE
        assert (classify_existence(table, nu, f_d, probes, band=0.01)
                is ExistenceRegime.GROWTH_SUFFICIENT)

    def test_rejects_bad_radii(self):
        k = PowerLawKernel(2.0)
        with pytest.raises(ValueError):
            classify_existence(k, 0.1, 1.0, probe_radii=[10.0])
        with pytest.raises(ValueError):
            classify_existence(k, 0.1, 1.0, probe_radii=[10.0, 5.0])
        with pytest.raises(ValueError):
            classify_existence(k, 0.1, 1.0, probe_radii=[0.5, 10.0])
