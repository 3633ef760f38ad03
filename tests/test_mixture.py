"""Mixture specification, stratified sampling, population moments (checked
against hand arithmetic and a large Monte-Carlo draw), and the seeded
separation/dispersion family.
"""

import csv
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from structdr import (
    ConfigError,
    LabeledDataset,
    MixtureSpec,
    make_separation_family,
    sample,
    scatter_matrices,
    sdist_overlap,
)
from structdr import mixture
from structdr.errors import DefinitenessError
from structdr.linalg import cluster_counts
from structdr.mixture import draw_rows, make_separation_families

from oracles import (
    blockwise_sample,
    blockwise_sdist_overlap,
    matrixwise_separation_family,
    population_moments,
    reference_from_csv,
)

DATA = Path(__file__).resolve().parent / "data"


def two_component_spec(sep=2.0):
    means = np.array([[-sep / 2, 0.0], [sep / 2, 0.0]])
    covs = np.stack([np.eye(2), np.eye(2)])
    return MixtureSpec(means=means, covariances=covs)


class TestMixtureSpec:
    def test_dimension_floor(self):
        with pytest.raises(ConfigError):
            MixtureSpec(means=np.zeros((3, 2)), covariances=np.stack([np.eye(2)] * 3))

    def test_non_spd_covariance_rejected(self):
        covs = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(DefinitenessError, match="Cholesky"):
            MixtureSpec(means=np.zeros((2, 2)), covariances=covs)

    def test_first_bad_covariance_in_order_is_named(self):
        # covariance 2 of 4 is indefinite and covariance 3 asymmetric: each
        # covariance is checked in turn, and the first bad one is named
        covs = np.stack([np.eye(4)] * 4)
        covs[2] = np.diag([1.0, -1.0, 1.0, 1.0])
        means = np.zeros((4, 4))
        with pytest.raises(DefinitenessError, match=r"^covariance 2 is not positive "
                                                    r"definite \(Cholesky failed\)$"):
            MixtureSpec(means=means, covariances=covs)
        covs[3, 0, 1] = 0.5
        with pytest.raises(DefinitenessError, match="^covariance 2 is not positive"):
            MixtureSpec(means=means, covariances=covs)
        covs[2] = np.eye(4)
        with pytest.raises(ConfigError, match="^covariance 3 is not symmetric$"):
            MixtureSpec(means=means, covariances=covs)

    def test_stacked_factors_are_those_of_each_covariance(self):
        # one Cholesky over the (k, d, d) stack gives each covariance's own
        # factor, bit for bit
        for spec in make_separation_families(7, 5, 3.0, 1.7, [4, 5]):
            alone = np.stack([np.linalg.cholesky(cov) for cov in spec.covariances])
            assert spec.factors.tobytes() == alone.tobytes()

    def test_json_round_trip(self):
        # bit for bit: JSON keeps each double's repr, and a spec read back is
        # factored by the same constructor as a family's own specs
        for d, k in [(4, 3), (20, 10)]:
            for spec in make_separation_families(d, k, 2.5, 1.3, [11, 2**63 + 5]):
                clone = MixtureSpec.from_json(spec.to_json())
                for name in ("means", "covariances", "factors"):
                    assert getattr(clone, name).tobytes() == getattr(spec, name).tobytes()

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            MixtureSpec.from_json('{"means": [[0, 0]]}')

    @pytest.mark.parametrize("means,message", [
        ('[["a", 1], [0, 0]]', "malformed mixture spec document"),
        ("[[0, 0], [1]]", "malformed mixture spec document"),
        ("[[NaN, 0], [0, 0]]", "means and covariances must be finite"),
    ], ids=["non-numeric", "ragged", "nan"])
    def test_bad_means_rejected(self, means, message):
        text = f'{{"means": {means}, "covariances": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}}'
        with pytest.raises(ConfigError, match=message):
            MixtureSpec.from_json(text)

    def test_no_components_rejected(self):
        with pytest.raises(ConfigError, match=r"means must be \(k, d\) with k >= 1"):
            MixtureSpec(means=np.zeros((0, 3)), covariances=np.zeros((0, 3, 3)))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_symmetry_verdict_does_not_depend_on_units(self, scale):
        means = np.array([[0.0, 0.0], [1.0, 0.0]])
        symmetric = scale * np.array([[1.0, 0.5], [0.5, 1.0]])
        asymmetric = scale * np.array([[1.0, 0.5], [0.4, 1.0]])
        MixtureSpec(means=means, covariances=np.stack([np.eye(2), symmetric]))
        with pytest.raises(ConfigError, match="covariance 1 is not symmetric"):
            MixtureSpec(means=means, covariances=np.stack([np.eye(2), asymmetric]))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 2), (3, 3, 3)])
    def test_covariance_shape_checked(self, shape):
        message = rf"^covariances must be \(2, 3, 3\), got shape {re.escape(str(shape))}$"
        with pytest.raises(ConfigError, match=message):
            MixtureSpec(means=np.zeros((2, 3)), covariances=np.ones(shape))

    def test_non_finite_covariance_rejected(self):
        covs = np.stack([np.eye(2), np.diag([1.0, np.inf])])
        with pytest.raises(ConfigError, match="must be finite"):
            MixtureSpec(means=np.zeros((2, 2)), covariances=covs)


class TestSample:
    def test_deterministic(self):
        spec = two_component_spec()
        a = sample(spec, 50, seed=123)
        b = sample(spec, 50, seed=123)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_output(self):
        spec = two_component_spec()
        a = sample(spec, 50, seed=1)
        b = sample(spec, 50, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_law_of_large_numbers_single_component(self):
        spec = MixtureSpec(means=np.zeros((1, 2)), covariances=np.eye(2)[None])
        data = sample(spec, 5000, seed=42)
        assert np.abs(data.data.mean(axis=0)).max() < 0.05
        cov = np.cov(data.data, rowvar=False)
        assert np.abs(cov - np.eye(2)).max() < 0.1

    def test_exact_balanced_counts(self):
        spec = make_separation_family(3, 3, 2.0, 1.0, seed=0)
        data = sample(spec, 17, seed=5)
        np.testing.assert_array_equal(cluster_counts(data.labels), [17, 17, 17])

    def test_too_small_sample_rejected(self):
        spec = make_separation_family(5, 2, 2.0, 1.0, seed=0)
        with pytest.raises(ConfigError, match="too small"):
            sample(spec, 10, seed=0)  # n = 20 < 10 * d = 50

    @pytest.mark.parametrize("n_per_cluster", [0, -1])
    def test_n_per_cluster_below_one_rejected(self, n_per_cluster):
        with pytest.raises(ConfigError, match=f"^n_per_cluster must be >= 1, got {n_per_cluster}$"):
            sample(two_component_spec(), n_per_cluster, seed=0)

    @pytest.mark.parametrize("n_per_cluster", [30.0, True, "30", None, np.float64(30)],
                             ids=["float", "bool", "str", "none", "numpy-float"])
    def test_non_integer_n_per_cluster_rejected(self, n_per_cluster):
        # a bool is not taken as 1 and a float is not passed on to numpy
        with pytest.raises(ConfigError) as caught:
            sample(two_component_spec(), n_per_cluster, seed=0)
        assert str(caught.value) == f"n_per_cluster must be an integer, got {n_per_cluster!r}"

    def test_numpy_integer_n_per_cluster_accepted(self):
        got = sample(two_component_spec(), np.int64(30), seed=4)
        want = sample(two_component_spec(), 30, seed=4)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("d,k,n_per", [
        (2, 2, 100), (3, 2, 17), (7, 3, 100), (7, 7, 300), (13, 4, 33), (20, 10, 301),
    ])
    def test_one_draw_equals_blockwise_draws(self, d, k, n_per):
        # one standard-normal draw for all rows is the same PCG64 stream as
        # one draw per component, and the cached factors are the fresh ones
        specs = [make_separation_family(d, k, 3.0, 1.5, seed=seed) for seed in range(4)]
        for seed, spec in enumerate(specs[:3]):
            got, want = sample(spec, n_per, seed=seed + 10), blockwise_sample(spec, n_per, seed + 10)
            assert got.data.tobytes() == want.data.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)
        # a stack of R specs draws each slice from its own stream, and its one
        # stacked product gives each slice the bits of a per-component draw
        for replicates in range(1, 5):
            seeds = [20 + seed for seed in range(replicates)]
            rows = draw_rows(specs[:replicates], n_per, seeds)
            assert rows.flags.c_contiguous and rows.shape == (replicates, n_per * k, d)
            for slot, spec, seed in zip(rows, specs, seeds):
                assert slot.tobytes() == blockwise_sample(spec, n_per, seed).data.tobytes()

    def test_cached_factors_are_the_cholesky_factors(self):
        spec = make_separation_family(6, 4, 2.0, 1.3, seed=3)
        for cov, factor in zip(spec.covariances, spec.factors):
            assert factor.tobytes() == np.linalg.cholesky(cov).tobytes()

    def test_row_permutation_preserves_unlabeled_statistics(self):
        spec = make_separation_family(3, 2, 3.0, 1.0, seed=2)
        data = sample(spec, 40, seed=3)
        rng = np.random.default_rng(4)
        perm = rng.permutation(data.n)
        shuffled = LabeledDataset(data=data.data[perm], labels=data.labels[perm])
        np.testing.assert_allclose(shuffled.data.mean(axis=0), data.data.mean(axis=0))
        np.testing.assert_allclose(
            scatter_matrices(shuffled).total, scatter_matrices(data).total, atol=1e-9
        )


class TestCountsNumpyCannotSize:
    """A count below 2**63 whose array numpy cannot size is a ConfigError that
    names the count, raised before the allocation."""

    def test_family_dimension(self):
        d = 2**40
        with pytest.raises(ConfigError) as caught:
            make_separation_family(d, 2, 1.0, 1.0, 0)
        assert str(caught.value) == (
            f"d = {d} is too large: a 1 x 3 x {d} x {d} float64 array is more than numpy can size")

    def test_sample_size(self):
        with pytest.raises(ConfigError) as caught:
            sample(two_component_spec(), 2**62, 0)
        assert str(caught.value) == (
            f"n_per_cluster = {2**62} is too large: a 1 x {2**63} x 2 float64 array is more "
            "than numpy can size")

    def test_overlap_sample_count(self):
        with pytest.raises(ConfigError) as caught:
            sdist_overlap(two_component_spec(), 2**62)
        assert str(caught.value) == (
            f"mc_samples = {2**62} is too large: a {2**62} x 2 float64 array is more than "
            "numpy can size")


class TestPopulationMoments:
    def test_hand_case(self):
        mom = population_moments(two_component_spec(sep=2.0))
        np.testing.assert_allclose(mom.grand_mean, [0.0, 0.0])
        np.testing.assert_allclose(mom.grand_cov, np.diag([2.0, 1.0]))

    def test_equal_means_leave_only_within(self):
        covs = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        spec = MixtureSpec(means=np.ones((2, 2)), covariances=covs)
        mom = population_moments(spec)
        np.testing.assert_allclose(mom.between, 0.0, atol=1e-15)
        np.testing.assert_allclose(mom.grand_cov, np.diag([2.0, 3.0]))

    def test_decomposition_identity(self):
        spec = make_separation_family(5, 3, 2.7, 1.4, seed=21)
        mom = population_moments(spec)
        np.testing.assert_allclose(mom.grand_cov - mom.within, mom.between, atol=1e-15)

    def test_monte_carlo_oracle(self):
        # brute-force moments from a 1e6-row draw agree within 2%
        spec = make_separation_family(5, 3, 3.0, 1.2, seed=9)
        mom = population_moments(spec)
        big = sample(spec, 333_334, seed=11)
        scale = np.sqrt(np.trace(mom.grand_cov) / spec.d)
        assert np.abs(big.data.mean(axis=0) - mom.grand_mean).max() < 0.02 * scale
        mc_cov = np.cov(big.data, rowvar=False, ddof=0)
        rel = np.linalg.norm(mc_cov - mom.grand_cov) / np.linalg.norm(mom.grand_cov)
        assert rel < 0.02


class TestSeparationFamily:
    def test_zero_separation_collapses_means(self):
        spec = make_separation_family(4, 3, 0.0, 1.0, seed=7)
        np.testing.assert_allclose(spec.means, 0.0, atol=1e-15)

    def test_pairwise_distances_scale_linearly(self):
        a = make_separation_family(5, 4, 2.0, 1.0, seed=8)
        b = make_separation_family(5, 4, 4.0, 1.0, seed=8)

        def pairwise(spec):
            diffs = spec.means[:, None, :] - spec.means[None, :, :]
            return np.linalg.norm(diffs, axis=-1)

        np.testing.assert_allclose(pairwise(b), 2.0 * pairwise(a), atol=1e-12)

    def test_pairwise_distances_equal_separation(self):
        spec = make_separation_family(6, 4, 3.5, 1.0, seed=9)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(spec.means[i] - spec.means[j]) == pytest.approx(3.5)

    def test_covariance_condition_cap(self):
        spec = make_separation_family(6, 3, 1.0, 2.0, seed=10)
        for cov in spec.covariances:
            vals = np.linalg.eigvalsh(cov)
            assert vals.max() / vals.min() <= 10.0 + 1e-9

    def test_dispersion_scales_covariances(self):
        a = make_separation_family(4, 2, 1.0, 1.0, seed=11)
        b = make_separation_family(4, 2, 1.0, 3.0, seed=11)
        np.testing.assert_allclose(b.covariances, 9.0 * a.covariances, atol=1e-12)

    def test_well_separated_two_cluster_overlap(self):
        # 1-D projection overlap along the intermean direction bounds the
        # mixture overlap from above, so high separation forces sdist
        # towards 1: at s=6, w=1 the estimate clears 0.95 comfortably.
        spec = make_separation_family(2, 2, 6.0, 1.0, seed=0)
        est = sdist_overlap(spec, 200_000, seed=1)
        assert est.value > 0.95

    # sdist_overlap draws mc_samples // 2 rows per component through
    # draw_rows, so an odd mc_samples uses one row fewer
    @pytest.mark.parametrize("d,mc_samples,seed", [(2, 10_000, 0), (4, 20_001, 1), (9, 30_000, 7),
                                                   (3, 10_003, 5)])
    def test_overlap_estimate_unchanged_by_one_draw(self, d, mc_samples, seed):
        spec = make_separation_family(d, 2, 3.0, 1.0, seed=seed)
        est = sdist_overlap(spec, mc_samples, seed=seed + 1)
        assert (est.value, est.std_error) == blockwise_sdist_overlap(spec, mc_samples, seed + 1)

    @pytest.mark.parametrize("d,k", [(7, 3), (7, 4), (7, 5), (7, 6), (7, 7), (20, 10)])
    def test_stacked_build_equals_each_seed_alone(self, d, k):
        seeds = [3, 11, 2**63 + 5, 0, 11]
        stacked = make_separation_families(d, k, 10.0, 1.7, seeds)
        assert len(stacked) == len(seeds)
        for seed, spec in zip(seeds, stacked):
            for alone in (make_separation_family(d, k, 10.0, 1.7, seed),
                          matrixwise_separation_family(d, k, 10.0, 1.7, seed)):
                for name in ("means", "covariances", "factors"):
                    got, want = getattr(spec, name), getattr(alone, name)
                    assert got.tobytes() == want.tobytes(), (seed, name)
                    assert got.strides == want.strides, (seed, name)

    def test_bad_parameters_rejected_before_any_draw(self):
        # numpy rejects a negative seed, so a draw would raise ValueError
        lower = np.sqrt(np.finfo(float).tiny * 10.0)
        for separation, dispersion, message in [
            (np.nan, 1.0, "separation must be finite and >= 0, got nan"),
            (np.inf, 1.0, "separation must be finite and >= 0, got inf"),
            (-np.inf, 1.0, "separation must be finite and >= 0, got -inf"),
            (-1.0, 1.0, "separation must be finite and >= 0, got -1.0"),
            (1.0, np.nan, "dispersion must be finite and > 0, got nan"),
            (1.0, -np.inf, "dispersion must be finite and > 0, got -inf"),
            (1.0, 0.0, "dispersion must be finite and > 0, got 0.0"),
            (1.0, 1e-200, "dispersion = 1e-200 is too small: the covariances underflow"),
            (1.0, np.nextafter(lower, 0.0), "is too small: the covariances underflow"),
            (1.0, np.inf, "dispersion must be finite and > 0, got inf"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                make_separation_families(3, 2, separation, dispersion, [1, -1])

    @pytest.mark.parametrize("d,k,separation,dispersion,message", [
        ("4", 2, 4.0, 1.0, "d must be an integer, got '4'"),
        (4.0, 2, 4.0, 1.0, "d must be an integer, got 4.0"),
        (True, 1, 4.0, 1.0, "d must be an integer, got True"),
        (4, 2.0, 4.0, 1.0, "k must be an integer, got 2.0"),
        (4, None, 4.0, 1.0, "k must be an integer, got None"),
        (3, 2, "4", 1.0, "separation must be finite and >= 0, got '4'"),
        (3, 2, None, 1.0, "separation must be finite and >= 0, got None"),
        (3, 2, True, 1.0, "separation must be finite and >= 0, got True"),
        (3, 2, 4.0, "1", "dispersion must be finite and > 0, got '1'"),
        (3, 2, 4.0, None, "dispersion must be finite and > 0, got None"),
        (3, 2, 4.0, True, "dispersion must be finite and > 0, got True"),
        # an int beyond the float range is no finite real
        (3, 2, 10**400, 1.0, f"separation must be finite and >= 0, got {10**400!r}"),
        (3, 2, 4.0, 10**400, f"dispersion must be finite and > 0, got {10**400!r}"),
    ], ids=["d-str", "d-float", "d-bool", "k-float", "k-none", "separation-str",
            "separation-none", "separation-bool", "dispersion-str", "dispersion-none",
            "dispersion-bool", "separation-huge-int", "dispersion-huge-int"])
    def test_non_number_parameters_rejected_before_any_draw(self, d, k, separation,
                                                            dispersion, message):
        # numpy rejects a negative seed, so a draw would raise ValueError
        with pytest.raises(ConfigError) as caught:
            make_separation_families(d, k, separation, dispersion, [1, -1])
        assert str(caught.value) == message
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_separation_family(d, k, separation, dispersion, seed=0)

    def test_numpy_scalar_parameters_build_the_same_spec(self):
        want = make_separation_family(5, 3, 4.0, 1.5, seed=9)
        got = make_separation_family(np.int64(5), np.int32(3), np.float64(4.0),
                                     np.float32(1.5), seed=9)
        for name in ("means", "covariances", "factors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_every_spec_goes_through_the_constructor(self, monkeypatch):
        # the spec's own checks and Cholesky run once per seed, so a family
        # spec is made the way a spec read from JSON is
        built = []
        post_init = MixtureSpec.__post_init__

        def counting_post_init(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(MixtureSpec, "__post_init__", counting_post_init)
        specs = make_separation_families(7, 3, 10.0, 1.7, [3, 11, 2**63 + 5, 0, 11])
        assert len(built) == 5
        assert all(got is want for got, want in zip(specs, built))
        make_separation_family(4, 2, 4.0, 1.0, seed=1)
        assert len(built) == 6

    @pytest.mark.parametrize("d,k", [(2, 2), (20, 10)])
    def test_smallest_dispersion_builds_every_seed(self, d, k):
        # at the lower bound every covariance eigenvalue is a normal double,
        # so every spec's Cholesky succeeds and its factors hold
        lower = np.sqrt(np.finfo(float).tiny * 10.0)
        specs = make_separation_families(d, k, 1.0, lower, range(200))
        assert len(specs) == 200
        for spec in specs:
            assert np.isfinite(spec.factors).all()
            rebuilt = spec.factors @ np.swapaxes(spec.factors, -1, -2)
            scale = np.abs(spec.covariances).max(axis=(-2, -1), keepdims=True)
            assert (np.abs(rebuilt - spec.covariances) <= 1e-14 * scale).all()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            make_separation_family(2, 3, 1.0, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_separation_family(5, 2, -1.0, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_separation_family(5, 2, 1.0, 0.0, seed=0)


class TestLabeledDatasetCsv:
    def test_round_trip(self, tmp_path):
        spec = make_separation_family(3, 2, 2.0, 1.0, seed=1)
        data = sample(spec, 20, seed=2)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        clone = LabeledDataset.from_csv(path)
        np.testing.assert_array_equal(clone.data, data.data)
        np.testing.assert_array_equal(clone.labels, data.labels)

    @pytest.mark.parametrize("body", [
        'x1,x2,label\r\n"1.5","-2",1\r\n"3e2",4.25,"2"\r\n',
        "x1,x2,label\r\n 1.5 ,-2 ,1\r\n3e2, 4.25, 2\r\n",
        "x1,x2,label\n1.5,-2,1\n3e2,4.25,2\n",
        "x1,x2,label\r\n\r\n1.5,-2,1\r\n\r\n\n3e2,4.25,2\r\n\r\n",
        "x1,x2,label\n1.5,-2,+1\n3_0_0.0,4.25e0, 2\n",
    ], ids=["quoted", "spaces", "lf", "blank-lines", "python-number-syntax"])
    def test_accepted_syntax(self, tmp_path, body):
        # csv quoting, whitespace Python's float and int strip, bare \n line
        # ends, blank lines between rows and underscores in numbers
        path = tmp_path / "data.csv"
        path.write_bytes(body.encode())
        data = LabeledDataset.from_csv(path)
        assert data.data.tolist() == [[1.5, -2.0], [300.0, 4.25]]
        assert data.labels.tolist() == [1, 2]

    def test_numpy_reads_plain_files_without_the_csv_loop(self, tmp_path, monkeypatch):
        # the csv loop gives the same results, so a numpy release that warned
        # on every file and sent every read to the loop would show only here
        rng = np.random.default_rng(0)
        large = LabeledDataset(data=rng.standard_normal((3000, 20)),
                               labels=np.arange(3000) % 4 + 1)
        large.to_csv(tmp_path / "large.csv")
        golden = DATA / "gen_d4_k2_n30_s1.csv"
        expected = {golden: reference_from_csv(golden), tmp_path / "large.csv": large}
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('x1,label\n"1.5",1\n')

        def header_only(fh):
            rows = csv.reader(fh)
            yield next(rows)
            for _ in rows:
                raise AssertionError("the csv loop read a row")

        monkeypatch.setattr(mixture, "csv", SimpleNamespace(
            reader=header_only, field_size_limit=csv.field_size_limit))
        for path, want in expected.items():
            data = LabeledDataset.from_csv(path)
            assert data.data.tobytes() == want.data.tobytes()
            assert data.labels.tolist() == want.labels.tolist()
        with pytest.raises(AssertionError, match="the csv loop read a row"):
            LabeledDataset.from_csv(quoted)  # numpy rejects the quotes

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            LabeledDataset.from_csv(path)

    @pytest.mark.parametrize("header", [
        "a,b,label", "x2,x1,label", "x1,x3,label", "X1,label", "x1,x2", "weight,label", "",
    ])
    def test_header_must_be_x1_to_xd_then_label(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,2.0,1\n3.0,4.0,2\n")
        with pytest.raises(ConfigError) as caught:
            LabeledDataset.from_csv(path)
        assert str(caught.value) == (
            f"{path}: expected header x1,...,xd,label with d >= 1, found {header!r}"
        )

    def test_labels_must_cover_range(self):
        with pytest.raises(Exception):
            LabeledDataset(data=np.zeros((4, 2)), labels=np.array([1, 1, 3, 3]))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ConfigError, match="row 1, column label: 1.5 is not an integer"):
            LabeledDataset(data=np.zeros((3, 2)), labels=[1.5, 1.0, 2.7])
        with pytest.raises(ConfigError, match="row 2, column label"):
            LabeledDataset(data=np.zeros((3, 2)), labels=[1.0, np.nan, 2.0])
        assert LabeledDataset(data=np.zeros((3, 2)), labels=[1.0, 1.0, 2.0]).k == 2

    @pytest.mark.parametrize("labels,message", [
        (np.array(["a", "b", "c", "d"]), "row 1, column label: a is not an integer"),
        (["1", "1", "2", "2"], "row 1, column label: 1 is not an integer"),
        ([1, None, 2, 2], "row 2, column label: None is not an integer"),
        ([1, 1, 2, 2.5, 2**70], "row 4, column label: 2.5 is not an integer"),
        ([True, True, False, False], "row 1, column label: True is not an integer"),
        ([1, 1, 2, 2j], "row 1, column label: (1+0j) is not an integer"),
    ], ids=["strings", "numeric-strings", "none", "object-float", "bools", "complex"])
    def test_non_numeric_labels_rejected(self, labels, message):
        data = np.zeros((len(labels), 2))
        with pytest.raises(ConfigError) as caught:
            LabeledDataset(data=data, labels=labels)
        assert str(caught.value) == message

    @pytest.mark.parametrize("labels,message", [
        ([1, 2**63 + 1], f"row 2, column label: {2**63 + 1} is outside the int64 range"),
        ([2**64 - 1, 1], f"row 1, column label: {2**64 - 1} is outside the int64 range"),
    ], ids=["2**63+1", "2**64-1"])
    def test_unsigned_labels_beyond_int64_rejected(self, labels, message):
        with pytest.raises(ConfigError) as caught:
            LabeledDataset(data=np.zeros((2, 2)), labels=np.array(labels, dtype=np.uint64))
        assert str(caught.value) == message

    def test_object_labels_of_integers_accepted(self):
        data = LabeledDataset(data=np.zeros((4, 2)), labels=np.array([1, 2, 1, 2], dtype=object))
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [1, 2, 1, 2]

    @pytest.mark.parametrize("data,dtype", [
        (np.ones((4, 2)) * 1j, "complex128"),
        (np.ones((4, 2), dtype=np.complex64), "complex64"),
        (np.full((4, 2), "1.5"), "<U3"),
        (np.ones((4, 2), dtype=bool), "bool"),
        (np.array([[1.0, None]] * 4), "object"),
    ], ids=["complex", "complex64", "strings", "bools", "object"])
    def test_non_real_data_rejected_naming_its_dtype(self, data, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the imaginary parts are not dropped with a warning
            with pytest.raises(ConfigError) as caught:
                LabeledDataset(data=data, labels=[1, 1, 2, 2])
        assert str(caught.value) == f"data must be real numbers, got dtype {dtype}"

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.float32])
    def test_integer_and_float_data_kept_as_float64(self, dtype):
        data = LabeledDataset(data=np.arange(8).reshape(4, 2).astype(dtype), labels=[1, 1, 2, 2])
        assert data.data.dtype == np.float64
        assert data.data.tolist() == np.arange(8.0).reshape(4, 2).tolist()

    @pytest.mark.parametrize("data,labels,message", [
        (np.zeros(3), [1, 1, 2], "data must be 2-D, got shape (3,)"),
        (np.zeros((3, 2, 1)), [1, 1, 2], "data must be 2-D, got shape (3, 2, 1)"),
        (np.zeros((3, 0)), [1, 1, 2], "data has no feature columns"),
        (np.zeros((3, 2)), [1, 2], "labels shape (2,) does not match 3 rows"),
        (np.zeros((3, 2)), [[1, 1, 2]], "labels shape (1, 3) does not match 3 rows"),
    ], ids=["1-D", "3-D", "no-columns", "short-labels", "2-D-labels"])
    def test_bad_shapes_rejected(self, data, labels, message):
        with pytest.raises(ConfigError) as caught:
            LabeledDataset(data=data, labels=labels)
        assert str(caught.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, value):
        data = np.zeros((3, 2))
        data[1, 1] = value
        with pytest.raises(ConfigError, match="row 2, column x2: non-finite"):
            LabeledDataset(data=data, labels=[1, 1, 2])

    @pytest.mark.parametrize("body,where", [
        ("1.0,2.0,1\n\nnan,1.0,2\n", "row 2, column x1: non-finite value nan"),
        ("1.0,2.0,1\n1.0,abc,2\n", "row 2, column x2: 'abc' is not a number"),
        ("1.0,2.0,1\n1.0,3.0,1.5\n", "row 2, column label: '1.5' is not an integer"),
        ("1.0,2.0,1\n1.0,3.0\n", "row 2 has 2 fields, expected 3"),
    ])
    def test_malformed_rows_name_file_row_and_column(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n" + body)
        with pytest.raises(ConfigError) as caught:
            LabeledDataset.from_csv(path)
        assert str(caught.value) == f"{path}: {where}"
