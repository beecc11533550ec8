"""Acceptance suite: closed-form oracles, identity checks, and statistical
consistency at desk scale.  Each criterion prints one PASS/FAIL line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from perronmc.chain_sim import build_sampler, sample_batch
from perronmc.estimator import EstimationConfig, estimate_u, run_estimation
from perronmc.gw_app import Population, conditioned_proportions, step_generation
from perronmc.matrix_core import decompose, validate
from perronmc.oracle import lemma_partial_sums, power_iteration, quasispecies_residual

from _support import (
    ACCEPTANCE_2X2,
    closed_form_2x2,
    estimate_uk,
    random_primitive_matrix,
    random_stochastic_matrix,
    scale,
    visit_tally,
)


@contextmanager
def criterion(number: int, detail: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        print(f"[acceptance] criterion {number}: FAIL ({detail}): {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number}: PASS ({detail}) [{elapsed:.2f}s]")


def _criterion3_matrices():
    matrices = [validate(ACCEPTANCE_2X2)]
    rng = np.random.default_rng(7777)
    matrices += [random_primitive_matrix(rng, n_max=8, hi=5.0)
                 for _ in range(10)]
    return matrices


def _criterion4_matrices():
    rng = np.random.default_rng(77001)
    return [random_stochastic_matrix(rng, int(rng.integers(2, 7)))
            for _ in range(5)]


def test_criterion_1_closed_form_2x2():
    with criterion(1, "power iteration vs quadratic-formula eigenpair"):
        start = time.perf_counter()
        lam_true, u_true = closed_form_2x2()
        pair = power_iteration(validate(ACCEPTANCE_2X2))
        assert abs(pair.eigenvalue - lam_true) < 1e-10
        assert np.abs(pair.vector - u_true).sum() < 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_2_series_identity():
    with criterion(2, "return-weight series sums to 1 at the dominant value"):
        start = time.perf_counter()
        rng = np.random.default_rng(4242)
        matrices = [validate(ACCEPTANCE_2X2)]
        matrices += [random_primitive_matrix(rng, n_max=6) for _ in range(20)]
        for matrix in matrices:
            lam = power_iteration(matrix).eigenvalue
            k = int(rng.integers(0, matrix.n))
            series = lemma_partial_sums(matrix, k, lam)
            assert abs(series.partial_sums[-1] - 1.0) < 1e-8
            high = lemma_partial_sums(matrix, k, 1.5 * lam)
            assert high.partial_sums[-1] < 1.0 - 1e-3
        assert time.perf_counter() - start < 5.0


def test_criterion_3_monte_carlo_consistency():
    with criterion(3, "estimates within 1% / L1 0.02 of the oracle at 1e5"):
        start = time.perf_counter()
        config = EstimationConfig(samples=10**5, seed=31337)
        for matrix in _criterion3_matrices():
            pair = power_iteration(matrix)
            report = run_estimation(matrix, config)
            rel = abs(report.lambda_hat - pair.eigenvalue) / pair.eigenvalue
            l1 = np.abs(report.u_hat - pair.vector).sum()
            assert rel < 0.01, f"lambda off by {rel:.4f} for n={matrix.n}"
            assert l1 < 0.02, f"vector off by {l1:.4f} for n={matrix.n}"
        assert time.perf_counter() - start < 60.0


def test_criterion_4_stochastic_reduction():
    with criterion(4, "stochastic matrices: exact unit eigenvalue, "
                      "return-time reciprocal"):
        for matrix in _criterion4_matrices():
            pair = power_iteration(matrix)
            report = run_estimation(matrix, EstimationConfig(samples=10**5,
                                                             seed=555))
            assert report.lambda_hat == 1.0
            assert np.abs(report.u_hat - pair.vector).sum() < 0.02

            # Independent batch for the mean return time.
            decomp = decompose(matrix)
            batch = sample_batch(build_sampler(decomp), 0, 10**5, seed=556,
                                 cap=10**6, shards=1)
            mean_tau = float(batch.lengths.mean())
            assert abs(report.u_hat[0] * mean_tau - 1.0) < 0.02


def test_criterion_5_exact_algebraic_invariants():
    with criterion(5, "exact identities over 200 random cases"):
        rng = np.random.default_rng(90210)
        dyadic = np.array([0.25, 0.5, 2.0, 4.0, 8.0])
        for case in range(200):
            matrix = random_primitive_matrix(rng, n_max=6)
            decomp = decompose(matrix)
            rebuilt = decomp.fitness[:, None] * decomp.kernel
            assert (np.abs(rebuilt - matrix.entries)
                    <= 1e-14 * np.abs(matrix.entries)).all()

            k = int(rng.integers(0, matrix.n))
            seed = int(rng.integers(0, 2**63))
            config = EstimationConfig(base_state=k, samples=300, seed=seed)
            report = run_estimation(matrix, config)
            assert (report.u_hat >= 0.0).all()
            assert abs(report.u_hat.sum() - 1.0) <= 1e-12

            batch = sample_batch(build_sampler(decomp), k, 300, seed,
                                 cap=10**6, shards=1)
            tally = visit_tally(batch, decomp.fitness, report.lambda_hat)
            assert tally.numerators[k] == float(batch.path_count)
            assert (estimate_uk(batch, decomp.fitness, report.lambda_hat)
                    == estimate_u(batch, decomp.fitness, report.lambda_hat)[k])

            c = float(dyadic[case % dyadic.size])
            scaled = run_estimation(scale(matrix, c), config)
            assert np.abs(scaled.u_hat - report.u_hat).max() <= 1e-12


def test_criterion_6_equilibrium_equation():
    with criterion(6, "balance equation holds at the oracle eigenvector"):
        matrices = _criterion3_matrices() + _criterion4_matrices()
        for matrix in matrices:
            pair = power_iteration(matrix)
            res = quasispecies_residual(matrix, pair.vector)
            assert res.max_abs < 1e-10
            assert abs(res.mean_fitness - pair.eigenvalue) < 1e-10


def test_criterion_7_branching_proportions():
    with criterion(7, "surviving-tree proportions near the eigenvector"):
        start = time.perf_counter()
        matrix = validate(ACCEPTANCE_2X2)
        _, u_true = closed_form_2x2()
        props, survivors = conditioned_proportions(
            matrix, power_iteration(matrix), trials=10**4, horizon=10, seed=2718)
        assert survivors > 0
        assert np.abs(props - u_true).sum() < 0.05

        decomp = decompose(matrix)
        reps = 10**6
        for i in range(2):
            counts = np.zeros(2, dtype=np.int64)
            counts[i] = reps
            child = step_generation(Population(counts=counts, generation=0),
                                    decomp, np.random.default_rng(137 + i))
            np.testing.assert_allclose(child.counts / reps,
                                       matrix.entries[i], rtol=0.01)
        assert time.perf_counter() - start < 120.0


def test_criterion_8_cli_examples(tmp_path):
    with criterion(8, "CLI exit codes, reproducible reports, recomputable "
                      "discrepancies"):
        matrix_json = tmp_path / "m.json"
        matrix_json.write_text(json.dumps({"n": 2, "rows": ACCEPTANCE_2X2}))
        stochastic_csv = tmp_path / "stoch.csv"
        stochastic_csv.write_text("0.5,0.5\n0.25,0.75\n")
        flip_csv = tmp_path / "flip.csv"
        flip_csv.write_text("0,1\n1,0\n")

        def run(args):
            return subprocess.run([sys.executable, "-m", "perronmc", *args],
                                  capture_output=True, text=True)

        compare = run(["compare", str(matrix_json)])
        assert compare.returncode == 0
        payload = json.loads(compare.stdout)
        assert payload["l1_error"] < 0.02
        u_hat = np.asarray(payload["u_hat"])
        u = np.asarray(payload["u"])
        assert payload["l1_error"] == float(np.abs(u_hat - u).sum())
        assert payload["lambda_rel_error"] == float(
            abs(payload["lambda_hat"] - payload["lambda"]) / payload["lambda"])
        again = run(["compare", str(matrix_json)])
        assert again.stdout == compare.stdout

        lemma = run(["lemma-check", str(stochastic_csv)])
        assert lemma.returncode == 0
        assert abs(json.loads(lemma.stdout)["final_partial_sum"] - 1.0) < 1e-8

        estimate = run(["estimate", str(flip_csv)])
        assert estimate.returncode == 2
        assert "NotPrimitive" in estimate.stderr
