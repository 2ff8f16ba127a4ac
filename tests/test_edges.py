"""Edge inputs end to end: every method gives a result or a named error, and
never selects a feature that no kept draw of its replicate fits splits on."""

import numpy as np
import pytest
from click.testing import CliRunner

from bartsel import METHOD_NAMES, FitConfig, RunConfig, run_method, validate_dataset
from bartsel.cli import main
from bartsel.methods import METHOD_SPECS, fit_replicates, resolve_l_rep
from bartsel.sampler import Workers

CLUSTER_METHODS = {name for name, spec in METHOD_SPECS.items() if spec.route == "cluster"}


def split_features(dataset, config: RunConfig, workers: Workers) -> set[int]:
    """1-based features split on in any kept draw of the run's replicate
    fits, which ``workers`` kept."""
    l_rep = resolve_l_rep(config.method, config.l_rep)
    traces = fit_replicates(dataset, config.fit_config(), config.seed, l_rep, jobs=workers)
    return {int(j) + 1 for trace in traces for j in trace.feature}


def test_constant_columns_are_never_selected():
    # y = x1*x2 + noise; columns 5 and 6 are constant, so no rule splits them,
    # and their observed importance, null and local/gse thresholds are all 0
    rng = np.random.default_rng(2)
    X = rng.uniform(1.0, 3.0, size=(200, 6))
    X[:, 4] = 2.0
    X[:, 5] = -1.0
    dataset = validate_dataset(X[:, 0] * X[:, 1] + rng.normal(0.0, 0.5, 200), X)
    fit = FitConfig(n_trees=10, burn_in=100, n_draws=100)
    with Workers(1) as workers:
        for method in METHOD_NAMES:
            config = RunConfig(method=method, fit=fit, l_rep=3, l_perm=5, seed=2)
            selected = run_method(dataset, config, workers=workers).selection.selected
            assert not selected & {5, 6}, method
            assert {1, 2} <= selected, method


def edge_cases() -> dict:
    """Name -> (y, X) of each degenerate input."""
    rng = np.random.default_rng(1)
    cases = {"n=1": ([1.0], [[0.5, 0.2, 0.9]])}
    cases["n=2"] = ([0.3, 1.7], [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    X = rng.uniform(size=(20, 1))
    cases["p=1"] = (X[:, 0] + rng.normal(0.0, 0.1, 20), X)
    cases["constant y"] = (np.full(20, 2.5), rng.uniform(size=(20, 3)))
    X = rng.uniform(size=(20, 3))
    X[:, 2] = 4.0
    cases["one constant column"] = (3.0 * X[:, 0] + rng.normal(0.0, 0.1, 20), X)
    cases["all-constant X"] = (rng.normal(size=20), np.ones((20, 3)))
    X = rng.integers(0, 2, size=(30, 4)).astype(float)
    cases["binary ties"] = (X[:, 0] + rng.normal(0.0, 0.2, 30), X)
    X = rng.uniform(size=(8, 40))
    cases["p >> n"] = (X[:, 0] + rng.normal(0.0, 0.1, 8), X)
    return cases


EDGE_CASES = edge_cases()


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_every_method_gives_a_result_or_a_named_error(name):
    y, X = EDGE_CASES[name]
    dataset = validate_dataset(y, X)
    fit = FitConfig(n_trees=2, burn_in=5, n_draws=5)
    for method in METHOD_NAMES:
        config = RunConfig(method=method, fit=fit, l_rep=2, l_perm=2, seed=3)
        with Workers(1) as workers:
            if dataset.p == 1 and method in CLUSTER_METHODS:
                with pytest.raises(ValueError, match="clustering selection needs p >= 2"):
                    run_method(dataset, config, workers=workers)
                continue
            selected = run_method(dataset, config, workers=workers).selection.selected
            assert selected <= split_features(dataset, config, workers), (name, method)


def write_case_csv(path, y, X) -> None:
    X = np.asarray(X, dtype=float)
    header = ["y"] + [f"x{j + 1}" for j in range(X.shape[1])]
    rows = [",".join(repr(float(v)) for v in (yi, *xi)) for yi, xi in zip(y, X)]
    path.write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")


CLI_FLAGS = ["--trees", "2", "--burnin", "5", "--draws", "5", "--lrep", "2", "--lperm", "2"]


def named_error(name: str, method: str) -> str | None:
    """The error ``bartsel select`` must name for an edge case, or None."""
    if name == "empty CSV":
        return "no data rows"
    if np.shape(EDGE_CASES[name][1])[1] == 1 and method in CLUSTER_METHODS:
        return "clustering selection needs p >= 2 features"
    return None


@pytest.mark.parametrize("name", [*EDGE_CASES, "empty CSV"])
def test_select_exits_zero_or_with_a_named_error(name, tmp_path):
    # exit 0 with a result, or exit 1 with the error the library names;
    # exit 2 for a bad flag
    csv = tmp_path / "data.csv"
    if name == "empty CSV":
        csv.write_text("y,x1,x2\n", encoding="utf-8")
    else:
        write_case_csv(csv, *EDGE_CASES[name])
    runner = CliRunner()
    for method in METHOD_NAMES:
        out = tmp_path / method
        args = ["select", str(csv), "--method", method, *CLI_FLAGS, "--seed", "3", "--out", str(out)]
        result = runner.invoke(main, args)
        error = named_error(name, method)
        if error is None:
            assert result.exit_code == 0, (method, result.output)
            assert (out / "results.json").is_file() and (out / "importance.csv").is_file()
        else:
            assert result.exit_code == 1 and error in result.stderr, method
        bad = runner.invoke(main, [*args, "--trees", "0"])
        assert bad.exit_code == 2 and "n_trees" in bad.stderr, method
