import json
import os

import numpy as np
import pytest

from diffusionfa import (
    Experiment,
    figure_data,
    replication_seed,
    run,
    theoretical_sd_table,
    write_outputs,
)

from diffusionfa.config import ConfigError

from conftest import make_sim_config, make_spec


@pytest.fixture(scope="module")
def small_experiment():
    sim = make_sim_config(n=200, seed=0)
    return Experiment(
        sim=sim,
        replications=8,
        k_grid=(2,),
        alphas=(0.05, 0.01),
        keep_draws=("theta:1", "tstat:2", "rcov:1,1"),
        seed_base=555,
    )


@pytest.fixture(scope="module")
def small_aggregate(small_experiment):
    return run(small_experiment)


def test_replication_seeds_deterministic_and_distinct():
    seeds = [replication_seed(123, r) for r in range(200)]
    assert seeds == [replication_seed(123, r) for r in range(200)]
    assert len(set(seeds)) == 200
    assert replication_seed(124, 0) != replication_seed(123, 0)


def test_theoretical_sd_table_benchmark_values(truth):
    rows = {name: (true, sd)
            for name, true, sd in theoretical_sd_table(truth, make_spec(n=10**6, h=1e-4))}
    assert rows["rcov:1,1"][1] == pytest.approx(0.024, abs=5e-4)
    assert rows["rcov:2,1"][1] == pytest.approx(0.030, abs=5e-4)
    assert rows["theta:1"][1] == pytest.approx(0.003, abs=5e-4)
    assert rows["rcov:1,1"][0] == 17.0
    # sqrt(n) scaling between sample sizes
    rows3 = {name: sd for name, _, sd in
             theoretical_sd_table(truth, make_spec(n=10**3, h=1e-3))}
    assert rows3["theta:1"] == pytest.approx(
        rows["theta:1"][1] * np.sqrt(1000.0), rel=1e-10)


def test_aggregate_tables_have_expected_rows(small_aggregate):
    assert len(small_aggregate.rcov_rows) == 21
    assert len(small_aggregate.theta_rows) == 17
    assert [r.name for r in small_aggregate.tstat_rows] == ["tstat:2"]
    assert small_aggregate.included[2] + small_aggregate.exclusions[2] == 8
    assert set(small_aggregate.rejections) == {(2, 0.05), (2, 0.01)}
    assert small_aggregate.tstat_rows[0].true_value == 4


def test_aggregate_quartiles_ordered(small_aggregate):
    q = small_aggregate.quartiles[2]
    assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]


def test_single_replication_degenerate_sd():
    sim = make_sim_config(n=100, seed=4)
    exp = Experiment(sim=sim, replications=1,
                     k_grid=(2,), seed_base=9)
    agg = run(exp)
    assert all(r.sample_sd == 0.0 for r in agg.rcov_rows)


def test_bounds_must_hold_the_truth_only_where_it_is_the_start():
    # theta:3 is A[2, 0] = 7 in the truth
    sim = make_sim_config(n=100, seed=4)
    with pytest.raises(ConfigError, match=r"truth theta:3=7 lies outside \[-5, 5\]"):
        Experiment(sim=sim, replications=1, k_grid=(1, 2),
                   bounds_blocks={"loading": (-5.0, 5.0)})
    # without the generating count no fit starts at the truth in that box
    Experiment(sim=sim, replications=1, k_grid=(1,),
               bounds_blocks={"loading": (-5.0, 5.0)})


def test_parallel_matches_serial(small_experiment):
    serial = run(small_experiment, n_jobs=1)
    parallel = run(small_experiment, n_jobs=2)
    assert serial.seeds == parallel.seeds
    for a, b in zip(serial.rcov_rows + serial.theta_rows + serial.tstat_rows,
                    parallel.rcov_rows + parallel.theta_rows + parallel.tstat_rows):
        assert a == b
    for key in serial.draws:
        assert np.array_equal(serial.draws[key], parallel.draws[key])
    assert serial.rejections == parallel.rejections


def test_write_outputs_deterministic(tmp_path, small_experiment, small_aggregate):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    files1 = write_outputs(small_aggregate, str(out1), small_experiment)
    agg2 = run(small_experiment, n_jobs=2)
    files2 = write_outputs(agg2, str(out2), small_experiment)
    assert [os.path.basename(f) for f in files1] == \
        [os.path.basename(f) for f in files2]
    for f1, f2 in zip(files1, files2):
        with open(f1, "rb") as a, open(f2, "rb") as b:
            assert a.read() == b.read(), f1


def test_manifest_contents(tmp_path, small_experiment, small_aggregate):
    files = write_outputs(small_aggregate, str(tmp_path / "out"), small_experiment)
    manifest = [f for f in files if f.endswith("manifest.json")][0]
    with open(manifest) as fh:
        doc = json.load(fh)
    assert doc["replications"] == 8
    assert doc["seed_base"] == 555
    assert len(doc["seeds"]) == 8
    assert doc["seeds"][0] == replication_seed(555, 0)
    assert "exclusions" in doc and "version" in doc
    assert doc["sim"]["spec"]["n"] == 200


def test_figure_data_columns(small_aggregate):
    header, cols = figure_data(small_aggregate, "theta:1")
    assert header == ["draw", "standardized", "reference_quantile", "ecdf"]
    assert cols.shape == (8, 4)
    assert np.all(np.diff(cols[:, 0]) >= 0)
    assert cols[-1, 3] == 1.0
    # standardization uses the theoretical scale
    rows = {r.name: r for r in small_aggregate.theta_rows}
    row = rows["theta:1"]
    back = cols[:, 1] * row.theoretical_sd + row.true_value
    assert np.allclose(np.sort(back), cols[:, 0], rtol=0, atol=1e-12)


def test_figure_data_chi2_reference(small_aggregate):
    from diffusionfa import chi2_sf

    header, cols = figure_data(small_aggregate, "tstat:2")
    # reference quantiles follow the chi-squared df=4 midpoint grid
    probs = (np.arange(1, 9) - 0.5) / 8
    for pr, ref in zip(probs, cols[:, 2]):
        assert chi2_sf(4, ref) == pytest.approx(1.0 - pr, abs=1e-9)


def test_figure_data_requires_retained_draws(small_aggregate):
    with pytest.raises(KeyError, match="keep_draws"):
        figure_data(small_aggregate, "theta:2")


@pytest.mark.parametrize("failing", [{1, 4}, set(range(6))], ids=["some", "all"])
def test_nonconverged_replications_leave_moments_only(tmp_path, monkeypatch, failing):
    # replications in `failing` report a non-converged fit: they drop out of
    # the moment columns but still count in decisions, quartiles and draws
    from dataclasses import replace

    from diffusionfa import chi2_quantile, montecarlo

    real_test_k = montecarlo.test_k
    seen = []

    def flaky_test_k(rcov, spec, k, **kwargs):
        tr = real_test_k(rcov, spec, k, **kwargs)
        ok = len(seen) not in failing
        tr = replace(tr, fit=replace(tr.fit, converged=ok))
        seen.append((tr.statistic, ok, tr.fit.theta))
        return tr

    monkeypatch.setattr(montecarlo, "test_k", flaky_test_k)
    sim = make_sim_config(n=200, seed=0)
    exp = Experiment(sim=sim, replications=6,
                     k_grid=(2,), alphas=(0.05, 0.5), keep_draws=("all",),
                     seed_base=31)
    agg = run(exp)
    stats = np.array([s for s, _, _ in seen])
    ok = np.array([o for _, o, _ in seen])
    thetas = np.array([t for _, _, t in seen])

    assert agg.included[2] == 6 - len(failing)
    assert agg.included[2] + agg.exclusions[2] == 6
    assert np.array_equal(agg.draws["tstat:2"], stats)
    assert np.array_equal(agg.quartiles[2],
                          np.percentile(stats, [0, 25, 50, 75, 100]))
    for alpha in exp.alphas:
        assert agg.rejections[(2, alpha)] == np.sum(stats > chi2_quantile(4, alpha))
    tstat = agg.tstat_rows[0]
    assert (tstat.true_value, tstat.theoretical_sd) == (4.0, np.sqrt(8.0))
    if ok.any():
        assert tstat.sample_mean == pytest.approx(np.mean(stats[ok]), rel=1e-14)
        assert tstat.sample_sd == pytest.approx(np.std(stats[ok], ddof=1), rel=1e-12)
        means = np.array([row.sample_mean for row in agg.theta_rows])
        assert np.allclose(means, thetas[ok].mean(axis=0), rtol=1e-14, atol=0)
        assert np.array_equal(agg.draws["theta:1"], thetas[ok, 0])
    else:
        assert np.isnan(tstat.sample_mean) and tstat.sample_sd == 0.0
        assert all(np.isnan(row.sample_mean) and row.sample_sd == 0.0
                   for row in agg.theta_rows)
        assert not any(key.startswith("theta:") for key in agg.draws)
        names = [os.path.basename(f)
                 for f in write_outputs(agg, str(tmp_path), exp)]
        assert "figure_tstat_2.csv" in names
        assert not any(name.startswith("figure_theta") for name in names)
