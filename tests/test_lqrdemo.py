"""Tests for the box-constrained optimal control demo."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import lsq_linear

from toscert import lqrdemo, tos


def cost_matrix(inst):
    """The dense E and the layout; the reference for the block oracles."""
    layout = lqrdemo.TrajectoryLayout(inst.a.shape[0], inst.b.shape[1],
                                      inst.horizon)
    e = np.zeros((layout.dim, layout.dim))
    for t in range(inst.horizon + 1):
        e[layout.x_slice(t), layout.x_slice(t)] = inst.q
    for t in range(inst.horizon):
        e[layout.u_slice(t), layout.u_slice(t)] = inst.r
    return e, layout


def dynamics_constraints(inst, layout):
    """Rows of A_c w = b_c pinning x_0 and the transitions."""
    n, m, horizon = layout.n, layout.m, layout.horizon
    rows = (horizon + 1) * n
    a_c = np.zeros((rows, layout.dim))
    b_c = np.zeros(rows)
    a_c[:n, layout.x_slice(0)] = np.eye(n)
    b_c[:n] = inst.x_init
    for t in range(horizon):
        blk = slice((t + 1) * n, (t + 2) * n)
        a_c[blk, layout.x_slice(t + 1)] = np.eye(n)
        a_c[blk, layout.x_slice(t)] = -inst.a
        a_c[blk, layout.u_slice(t)] = -inst.b
    return a_c, b_c


def test_build_instance_dimensions_and_stability():
    inst = lqrdemo.build_instance(42, 20, 5, 20)
    assert inst.a.shape == (20, 20)
    assert inst.b.shape == (20, 5)
    assert inst.q.shape == (20, 20)
    assert inst.r.shape == (5, 5)
    rad = max(abs(np.linalg.eigvals(inst.a)))
    assert abs(rad - 1.0) < 1e-10
    assert np.linalg.eigvalsh(inst.q).min() >= -1e-10
    assert np.linalg.eigvalsh(inst.r).min() > 0


def test_build_instance_deterministic():
    a = lqrdemo.build_instance(7, 4, 2, 5)
    b = lqrdemo.build_instance(7, 4, 2, 5)
    assert np.array_equal(a.a, b.a)
    assert np.array_equal(a.x_init, b.x_init)
    c = lqrdemo.build_instance(8, 4, 2, 5)
    assert not np.array_equal(a.a, c.a)


def test_build_instance_validation():
    with pytest.raises(ValueError):
        lqrdemo.build_instance(0, 0, 2, 5)


def test_layout_dimensions():
    layout = lqrdemo.TrajectoryLayout(20, 5, 20)
    assert layout.dim == 21 * 20 + 20 * 5  # 520
    assert layout.x_slice(0) == slice(0, 20)
    assert layout.u_slice(0) == slice(420, 425)
    assert layout.u_block() == slice(420, 520)


def test_cost_matrix_blocks():
    inst = lqrdemo.build_instance(3, 4, 2, 5)
    e, layout = cost_matrix(inst)
    assert e.shape == (layout.dim, layout.dim)
    assert np.array_equal(e[layout.x_slice(2), layout.x_slice(2)], inst.q)
    assert np.array_equal(e[layout.u_slice(1), layout.u_slice(1)], inst.r)
    assert np.allclose(e, e.T)


def test_dynamics_projection_satisfies_constraints():
    inst = lqrdemo.build_instance(5, 4, 2, 6)
    _, layout = cost_matrix(inst)
    a_c, b_c = dynamics_constraints(inst, layout)
    proj = tos.AffineSubspaceProx(a_c, b_c)
    rng = np.random.default_rng(0)
    w = proj(1.0, rng.standard_normal(layout.dim))
    assert np.allclose(a_c @ w, b_c, atol=1e-9)
    # decoded trajectory actually rolls the dynamics forward
    for t in range(layout.horizon):
        x_t = w[layout.x_slice(t)]
        u_t = w[layout.u_slice(t)]
        x_next = w[layout.x_slice(t + 1)]
        assert np.allclose(x_next, inst.a @ x_t + inst.b @ u_t, atol=1e-9)
    assert np.allclose(w[layout.x_slice(0)], inst.x_init, atol=1e-10)


def test_assemble_oracles_clamps_inputs_only():
    inst = lqrdemo.build_instance(1, 3, 2, 4)
    oracle, layout, l_h = lqrdemo.assemble_oracles(inst)
    e, _ = cost_matrix(inst)
    w = 5.0 * np.ones(layout.dim)
    out = oracle.prox_f(0.3, w)
    assert np.all(out[layout.u_block()] == 1.0)
    assert np.all(out[: layout.u_block().start] == 5.0)
    assert abs(l_h - max(np.linalg.norm(inst.q, 2),
                         np.linalg.norm(inst.r, 2))) < 1e-12
    assert abs(l_h - np.linalg.norm(e, 2)) < 1e-9


def _dense_oracle(inst):
    """The oracles from the dense cost matrix and constraint rows."""
    oracle, layout, _ = lqrdemo.assemble_oracles(inst)
    e, _ = cost_matrix(inst)
    a_c, b_c = dynamics_constraints(inst, layout)
    return dataclasses.replace(
        oracle, prox_g=tos.AffineSubspaceProx(a_c, b_c),
        grad_h=lambda w: e @ w, objective=lambda w: 0.5 * float(w @ (e @ w)))


@pytest.mark.parametrize("n, m, horizon", [(1, 1, 1), (4, 2, 5), (20, 5, 20)])
def test_block_oracles_match_dense(n, m, horizon):
    inst = lqrdemo.build_instance(11, n, m, horizon)
    oracle, layout, _ = lqrdemo.assemble_oracles(inst)
    dense = _dense_oracle(inst)
    rng = np.random.default_rng(n)
    for _ in range(5):
        w = rng.standard_normal(layout.dim)
        assert np.abs(oracle.prox_g(1.0, w) - dense.prox_g(1.0, w)).max() \
            <= 1e-12
        g = dense.grad_h(w)
        assert np.abs(oracle.grad_h(w) - g).max() <= 1e-12 * np.abs(g).max()
        f = dense.objective(w)
        assert abs(oracle.objective(w) - f) <= 1e-12 * abs(f)


def test_run_matches_dense_reference():
    inst = lqrdemo.build_instance(0, 20, 5, 20)
    oracle, layout, l_h = lqrdemo.assemble_oracles(inst)
    lam = 1.5
    config = tos.TosConfig(alpha=(2.0 - lam) / l_h, lam=lam, max_iter=300)
    z0 = np.zeros(layout.dim)
    got = tos.run(oracle, z0, config)
    want = tos.run(_dense_oracle(inst), z0, config)
    for name in ("z", "x_b", "x_a"):
        diff = np.abs(np.array(getattr(got, name))
                      - np.array(getattr(want, name)))
        assert diff.max() <= 1e-12, name
    assert np.allclose(got.objective, want.objective, rtol=1e-12, atol=0)


def test_active_input_box():
    # criterion 11's instance, whose box is inactive, pushed onto the box
    n, m, horizon = 4, 2, 5
    inst = lqrdemo.build_instance(7, n, m, horizon)
    inst = dataclasses.replace(inst, x_init=3.0 * inst.x_init)
    # condensed reference: x = F u + g with the states eliminated, the
    # inputs solved as a bounded least-squares problem by BVLS
    fmat = np.zeros(((horizon + 1) * n, horizon * m))
    g = np.zeros((horizon + 1) * n)
    g[:n] = inst.x_init
    for t in range(1, horizon + 1):
        g[t * n:(t + 1) * n] = inst.a @ g[(t - 1) * n:t * n]
        fmat[t * n:(t + 1) * n] = inst.a @ fmat[(t - 1) * n:t * n]
        fmat[t * n:(t + 1) * n, (t - 1) * m:t * m] = inst.b
    qbar = np.kron(np.eye(horizon + 1), inst.q)
    hess = fmat.T @ qbar @ fmat + np.kron(np.eye(horizon), inst.r)
    lin = fmat.T @ qbar @ g
    chol = cholesky(hess, lower=True)
    ref = lsq_linear(chol.T, -solve_triangular(chol, lin, lower=True),
                     bounds=(-1.0, 1.0), method="bvls", tol=1e-15)
    u = ref.x
    f_ref = 0.5 * u @ hess @ u + lin @ u + 0.5 * g @ qbar @ g
    assert np.sum(np.abs(u) >= 1.0 - 1e-9) >= 1

    oracle, layout, l_h = lqrdemo.assemble_oracles(inst)
    lam = 1.0
    config = tos.TosConfig(alpha=(2.0 - lam) / l_h, lam=lam, max_iter=1000)
    trace = tos.run(oracle, np.zeros(layout.dim), config)
    assert abs(trace.objective[-1] - f_ref) <= 1e-6 * abs(f_ref)


def test_assemble_oracles_objective_and_classes():
    inst = lqrdemo.build_instance(1, 3, 2, 4)
    oracle, layout, _ = lqrdemo.assemble_oracles(inst)
    e, _ = cost_matrix(inst)
    w = np.ones(layout.dim)
    assert abs(oracle.objective(w) - 0.5 * w @ e @ w) < 1e-12
    # a gradient taken at another array is not reused
    oracle.grad_h(2.0 * w)
    assert abs(oracle.objective(w) - 0.5 * w @ e @ w) < 1e-12


class _CountedMatrix(np.ndarray):
    """A matrix that counts the products taken with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedMatrix.products += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs),
                                      **kwargs)


def test_one_gradient_a_step():
    # grad_h is the only oracle that multiplies by Q
    inst = lqrdemo.build_instance(0, 4, 2, 5)
    inst = dataclasses.replace(inst, q=inst.q.view(_CountedMatrix))
    oracle, layout, l_h = lqrdemo.assemble_oracles(inst)
    config = tos.TosConfig(alpha=1.0 / l_h, lam=1.0, max_iter=40)
    _CountedMatrix.products = 0
    trace = tos.run(oracle, np.zeros(layout.dim), config)
    assert len(trace.objective) == 40
    assert _CountedMatrix.products == 40


def test_trace_memory_is_two_iterates_a_step():
    oracle, layout, l_h = lqrdemo.assemble_oracles(
        lqrdemo.build_instance(0, 20, 5, 20))
    steps = 500
    config = tos.TosConfig(alpha=1.0 / l_h, lam=1.0, max_iter=steps)
    z0 = np.zeros(layout.dim)
    tracemalloc.start()
    try:
        trace = tos.run(oracle, z0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.x_b) == steps
    assert peak < 2.2 * steps * layout.dim * 8


def test_run_sweep_outputs(tmp_path):
    inst = lqrdemo.build_instance(2, 3, 2, 4)
    res = lqrdemo.run_sweep(inst, [0.5, 1.0], 40, out_dir=str(tmp_path))
    assert [rec["lambda"] for rec in res] == [0.5, 1.0]
    for rec in res:
        assert rec["alpha"] == pytest.approx((2 - rec["lambda"]) /
                                             lqrdemo.assemble_oracles(inst)[2])
        assert rec["iterations"] == 40
        assert rec["final_min_residual2"] == min(rec["trace"].residual_norm2)
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert len(summary) == 2 and "trace" not in summary[0]
    assert (tmp_path / "trace_lambda_0.5.csv").exists()


def _sweep_bytes(out_dir):
    """Each output of a small two-lambda sweep into out_dir, by name."""
    out_dir.mkdir(exist_ok=True)
    lqrdemo.run_sweep(lqrdemo.build_instance(2, 3, 2, 4), [0.5, 1.0], 40,
                      out_dir=str(out_dir))
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_run_sweep_replaces_longer_outputs(tmp_path):
    # an earlier sweep's longer files leave no tail: the bytes are a fresh
    # directory's, CSV rows ended by \r\n
    fresh = _sweep_bytes(tmp_path / "fresh")
    old = tmp_path / "old"
    old.mkdir()
    for name, data in fresh.items():
        (old / name).write_bytes(b"junk\n" * (len(data) // 5 + 100))
    assert _sweep_bytes(old) == fresh
    assert fresh["trace_lambda_0.5.csv"].startswith(
        b"k,residual_norm2,min_residual_norm2_so_far,dist_to_zstar2,"
        b"objective\r\n0,")


def test_run_sweep_leaves_a_hard_link_its_old_bytes(tmp_path):
    # the one change from truncating in place: the output is a new file, so
    # another link to the old one keeps the old content
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("old summary")
    (out / "trace_lambda_0.5.csv").write_text("old trace")
    for name in ("summary.json", "trace_lambda_0.5.csv"):
        (tmp_path / name).hardlink_to(out / name)
    fresh = _sweep_bytes(tmp_path / "fresh")
    assert _sweep_bytes(out) == fresh
    assert (tmp_path / "summary.json").read_text() == "old summary"
    assert (tmp_path / "trace_lambda_0.5.csv").read_text() == "old trace"


def test_run_sweep_validates_lambda(tmp_path):
    inst = lqrdemo.build_instance(2, 3, 2, 4)
    with pytest.raises(ValueError):
        lqrdemo.run_sweep(inst, [2.5], 10)
    for budget in (2.5, 10.0, float("nan"), 0):
        with pytest.raises(ValueError, match="iteration budget"):
            lqrdemo.run_sweep(inst, [1.0], budget, out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


def test_run_sweep_refuses_lambdas_that_share_a_csv(tmp_path):
    # both would write trace_lambda_0.123457.csv, one file for two runs
    inst = lqrdemo.build_instance(2, 3, 2, 4)
    for lambdas in ([0.1234567, 0.1234568], [0.5, 0.5]):
        with pytest.raises(ValueError, match="share the trace file name"):
            lqrdemo.run_sweep(inst, lambdas, 5, out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


def test_sweep_deterministic():
    inst = lqrdemo.build_instance(6, 4, 2, 5)
    r1 = lqrdemo.run_sweep(inst, [0.5], 30)
    r2 = lqrdemo.run_sweep(inst, [0.5], 30)
    assert r1[0]["final_min_residual2"] == r2[0]["final_min_residual2"]
