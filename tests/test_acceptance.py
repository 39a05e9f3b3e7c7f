"""Acceptance gate: ten criteria, one [PASS]/[FAIL] line each.

Criteria 1-4 are numeric (gradients, aggregation, KL, reparameterization)
and reuse the finite-difference and quadrature oracles from the unit tests.
Criteria 5-8 share a battery of desk-scale experiments: three seeds x
{no-rehearsal baseline, sampled VER with and without server-side training,
EBR with server-side training, three partial-enrollment scenarios} plus a
joint offline reference per seed.  Criteria 9-10 drive the CLI and the
upload path directly.

The battery takes a few minutes on one core; all assertions are on
seed-mean final accuracies with the tolerances stated inline.
"""

import json
import time

import numpy as np
import pytest

import filver.numcore as nc
from filver import cli
from filver.config import preset_config
from filver.errors import ContractViolation
from filver.federation import fedavg_aggregate, run_experiment, run_offline
from filver.models import (
    ClassifierModel,
    ClassifierSpec,
    EncoderModel,
    EncoderSpec,
    GaussianStats,
    ver_loss,
)
from filver.numcore import ParamVector
from filver.rng import RngStream
from filver.scenarios import ACTIVE, SCHEDULE_KINDS, make_schedule

from conftest import fd_params, packed
from oracles import (
    fd_arrays,
    quad_kl,
    rel_err,
    sample_conv_instance,
    sample_dense_instance,
    sample_pool_instance,
)
from test_federation import collect_admitted_payloads
from test_models import _composite_instance, _composite_loss
from test_numcore import kl_one

SEEDS = (14, 15, 16)
N_INSTANCES = 50
GRAD_TOL = 1e-4


def _verdict(capsys, number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: every analytic gradient matches central finite differences
# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences(capsys):
    t0 = time.time()
    rng = RngStream(314)
    worst = 0.0

    for i in range(N_INSTANCES):
        x, w, b = sample_dense_instance(rng.child("dense", i))
        target = rng.child("dense_t", i).normal((x.shape[0], w.shape[1]))

        def dense_loss(x_, w_, b_):
            out, _ = nc.dense_forward(x_, w_, b_, activation="relu")
            return float(np.sum(out * target))

        _, cache = nc.dense_forward(x, w, b, activation="relu")
        grads = nc.dense_backward(cache, target)
        fds = fd_arrays(dense_loss, [x, w, b])
        for a, n in zip(grads, fds):
            worst = max(worst, float(rel_err(a, n).max()))

    for i in range(N_INSTANCES):
        x, kernels, bias = sample_conv_instance(rng.child("conv", i))
        out, cache = nc.conv2d_forward(x, kernels, bias, activation="relu")
        target = rng.child("conv_t", i).normal(out.shape)

        def conv_loss(x_, k_, b_):
            o, _ = nc.conv2d_forward(x_, k_, b_, activation="relu")
            return float(np.sum(o * target))

        grads = nc.conv2d_backward(cache, target)
        fds = fd_arrays(conv_loss, [x, kernels, bias])
        for a, n in zip(grads, fds):
            worst = max(worst, float(rel_err(a, n).max()))

    for i in range(N_INSTANCES):
        x = sample_pool_instance(rng.child("pool", i))
        out, cache = nc.maxpool2x2(x)
        target = rng.child("pool_t", i).normal(out.shape)

        def pool_loss(x_):
            o, _ = nc.maxpool2x2(x_)
            return float(np.sum(o * target))

        dx = nc.maxpool2x2_backward(cache, target)
        (fdx,) = fd_arrays(pool_loss, [x])
        worst = max(worst, float(rel_err(dx, fdx).max()))

    for i in range(N_INSTANCES):
        logits = rng.child("sm", i).normal((5, 3)) * 2
        labels = rng.child("sm_y", i).integers(0, 3, shape=5)
        _, grad = nc.softmax_cross_entropy(logits, labels)

        def ce_loss(lg):
            value, _ = nc.softmax_cross_entropy(lg, labels)
            return value

        (fdg,) = fd_arrays(ce_loss, [logits])
        worst = max(worst, float(rel_err(grad, fdg).max()))

    for i in range(N_INSTANCES):
        mu = rng.child("kl_mu", i).normal((4, 3))
        log_sigma = rng.child("kl_ls", i).uniform(-1, 1, shape=(4, 3))
        _, dmu, dls = nc.gaussian_kl_batch(mu, log_sigma)

        def kl_mu(m):
            value, _, _ = nc.gaussian_kl_batch(m, log_sigma)
            return value

        def kl_ls(ls):
            value, _, _ = nc.gaussian_kl_batch(mu, ls)
            return value

        (fd_mu,) = fd_arrays(kl_mu, [mu])
        (fd_ls,) = fd_arrays(kl_ls, [log_sigma])
        worst = max(worst, float(rel_err(dmu, fd_mu).max()))
        worst = max(worst, float(rel_err(dls, fd_ls).max()))

    # composite: encoder + sampled embedding + classifier + scaled KL, with
    # the draw held fixed so the loss is a deterministic function of params
    encoder = EncoderModel(EncoderSpec("vee", (6,), embed_dim=4, arch="mlp", hidden=8))
    classifier = ClassifierModel(ClassifierSpec(classes=3, hidden=8, layers=1), embed_dim=4)
    beta = 0.05
    worst_composite = 0.0
    for i in range(N_INSTANCES):
        enc_params, cls_params, x, y, eps = _composite_instance(encoder, classifier, 5000 + i)
        mu, log_sigma, caches = encoder.stats_forward(enc_params, x)
        z = mu + nc.sigma_from_log(log_sigma) * eps
        res = ver_loss(GaussianStats(mu, log_sigma), z, eps, y, classifier, cls_params, beta)
        enc_grad = encoder.stats_backward(enc_params, caches, res.d_mu, res.d_log_sigma)

        fd_enc = fd_params(
            lambda p: _composite_loss(encoder, classifier, p, cls_params, x, y, eps, beta),
            enc_params, h=1e-5)
        floor = 1e-3 * float(np.abs(packed(enc_grad)).max())
        worst_composite = max(worst_composite, float(
            rel_err(packed(enc_grad), fd_enc.flat, floor=floor).max()))

        fd_cls = fd_params(
            lambda p: _composite_loss(encoder, classifier, enc_params, p, x, y, eps, beta),
            cls_params, h=1e-5)
        floor = 1e-3 * float(np.abs(packed(res.classifier_grad)).max())
        worst_composite = max(worst_composite, float(
            rel_err(packed(res.classifier_grad), fd_cls.flat, floor=floor).max()))

    elapsed = time.time() - t0
    worst = max(worst, worst_composite)
    ok = worst < GRAD_TOL and elapsed < 60.0
    _verdict(capsys, 1, ok,
             f"gradient FD max rel err {worst:.2e} < {GRAD_TOL:.0e} "
             f"over {N_INSTANCES} instances per layer family, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: aggregation is an exact weighted mean with its invariances
# ---------------------------------------------------------------------------


def _random_params(rng, layout=(("w", (3, 4)), ("b", (4,)))):
    return ParamVector.from_arrays([(name, rng.child(name).normal(shape))
                                    for name, shape in layout])


def test_criterion_02_fedavg_weighted_mean_and_invariances(capsys):
    rng = RngStream(271)
    worst_mean, worst_perm, worst_scale = 0.0, 0.0, 0.0
    for i in range(N_INSTANCES):
        sub = rng.child(i)
        k = 2 + int(sub.child("k").integers(0, 5))
        counts = [1 + int(c) for c in sub.child("n").integers(1, 400, (k,))]
        updates = [(_random_params(sub.child("p", j)), counts[j]) for j in range(k)]

        got = fedavg_aggregate(updates).flat
        flats = np.stack([p.flat for p, _ in updates])
        expected = np.average(flats, axis=0, weights=[float(n) for n in counts])
        worst_mean = max(worst_mean, float(rel_err(got, expected, floor=1e-12).max()))

        perm = sub.child("perm").permutation(k)
        shuffled = fedavg_aggregate([updates[j] for j in perm]).flat
        worst_perm = max(worst_perm, float(rel_err(shuffled, got, floor=1e-12).max()))

        scale = 2 + int(sub.child("s").integers(0, 30))
        scaled = fedavg_aggregate([(p, n * scale) for p, n in updates]).flat
        worst_scale = max(worst_scale, float(rel_err(scaled, got, floor=1e-12).max()))

    worst = max(worst_mean, worst_perm, worst_scale)
    ok = worst <= 1e-12
    _verdict(capsys, 2, ok,
             f"fedavg weighted-mean err {worst_mean:.2e}, permutation "
             f"{worst_perm:.2e}, count-scaling {worst_scale:.2e} (all <= 1e-12)")


# ---------------------------------------------------------------------------
# Criterion 3: closed-form KL equals quadrature; zero exactly at N(0, I)
# ---------------------------------------------------------------------------


def test_criterion_03_kl_matches_quadrature(capsys):
    rng = RngStream(161)
    worst = 0.0
    for i in range(20):
        mu = rng.child("mu", i).normal((3,))
        log_sigma = rng.child("ls", i).uniform(-1.5, 1.0, shape=(3,))
        closed = kl_one(mu, log_sigma)
        numeric = quad_kl(mu, np.exp(log_sigma))
        worst = max(worst, abs(closed - numeric))

    zero_at_standard = kl_one(np.zeros(4), np.zeros(4)) == 0.0
    positive_off_standard = (kl_one(np.full(4, 0.1), np.zeros(4)) > 0
                             and kl_one(np.zeros(4), np.full(4, 0.1)) > 0
                             and kl_one(np.zeros(4), np.full(4, -0.1)) > 0)

    ok = worst <= 1e-6 and zero_at_standard and positive_off_standard
    _verdict(capsys, 3, ok,
             f"KL vs quadrature max abs err {worst:.2e} <= 1e-6 on 20 pairs; "
             f"zero iff standard normal: {zero_at_standard and positive_off_standard}")


# ---------------------------------------------------------------------------
# Criterion 4: reparameterized draws have the declared moments
# ---------------------------------------------------------------------------


def test_criterion_04_reparameterization_statistics(capsys):
    n = 100_000
    mu = np.array([0.4, -1.2, 2.0, 0.0])
    log_sigma = np.log(np.array([0.3, 1.0, 0.05, 2.5]))
    sigma = np.exp(log_sigma)

    z, eps = nc.reparam_sample(np.tile(mu, (n, 1)), np.tile(log_sigma, (n, 1)),
                               RngStream(42))
    identity = np.array_equal(z, np.tile(mu, (n, 1)) + np.tile(sigma, (n, 1)) * eps)

    se_mean = sigma / np.sqrt(n)
    se_var = sigma ** 2 * np.sqrt(2.0 / (n - 1))
    mean_err = np.abs(z.mean(axis=0) - mu)
    var_err = np.abs(z.var(axis=0, ddof=1) - sigma ** 2)
    mean_ok = bool(np.all(mean_err <= 3 * se_mean))
    var_ok = bool(np.all(var_err <= 3 * se_var))

    ok = identity and mean_ok and var_ok
    _verdict(capsys, 4, ok,
             f"1e5 draws: z == mu + sigma*eps {identity}, mean within 3 SE {mean_ok} "
             f"(worst {float((mean_err / se_mean).max()):.2f} SE), variance within "
             f"3 SE {var_ok} (worst {float((var_err / se_var).max()):.2f} SE)")


# ---------------------------------------------------------------------------
# Desk-scale battery shared by criteria 5-8
# ---------------------------------------------------------------------------

BATTERY_RUNS = {
    "none": ("none", "fully_enrolled", "40"),
    "ver_nosst": ("ver_sampled", "fully_enrolled", "0"),
    "ver_sst": ("ver_sampled", "fully_enrolled", "40"),
    "ebr_sst": ("ebr", "fully_enrolled", "40"),
    "decreasing": ("ver_sampled", "decreasing", "40"),
    "increasing": ("ver_sampled", "increasing", "40"),
    "scattered": ("ver_sampled", "scattered", "40"),
}

OFFLINE_STEPS = 2000  # tasks * rounds_per_task * local_iters fresh-step budget


@pytest.fixture(scope="module")
def battery():
    base = preset_config("desk-split4")
    tasks = base.build_tasks()  # the dataset does not depend on the master seed
    accs: dict = {}
    durations: dict = {}

    t_start = time.time()
    print(f"\n[battery] {len(BATTERY_RUNS) * len(SEEDS)} federated runs + "
          f"{len(SEEDS)} offline references on seeds {SEEDS} ...", flush=True)

    for seed in SEEDS:
        for name, (strategy, scenario, s_max) in BATTERY_RUNS.items():
            cfg = preset_config("desk-split4", {
                "seed": str(seed), "scenario": scenario,
                "strategy.kind": strategy, "fl.s_max": s_max})
            t0 = time.time()
            _, state = run_experiment(
                tasks, cfg["scenario"], cfg.fl_config(), cfg.strategy_config(),
                cfg.model_config(tasks), master_seed=seed)
            accs[(name, seed)] = tuple(float(a) for a in state.evaluate())
            durations[(name, seed)] = time.time() - t0

        cfg = preset_config("desk-split4", {"seed": str(seed)})
        t0 = time.time()
        off_accs, _ = run_offline(tasks, cfg.fl_config(), cfg.model_config(tasks),
                                  master_seed=seed, steps=OFFLINE_STEPS)
        accs[("offline", seed)] = tuple(float(a) for a in off_accs)
        durations[("offline", seed)] = time.time() - t0
        print(f"[battery] seed {seed} done ({time.time() - t_start:.0f}s elapsed)",
              flush=True)

    means = {name: float(np.mean([np.mean(accs[(name, s)]) for s in SEEDS]))
             for name in list(BATTERY_RUNS) + ["offline"]}
    return {"accs": accs, "means": means, "durations": durations,
            "config": base, "n_tasks": tasks.n_tasks}


# ---------------------------------------------------------------------------
# Criterion 5: without rehearsal, the first task is forgotten
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_05_catastrophic_forgetting_without_rehearsal(capsys, battery):
    cfg = battery["config"]
    setup_ok = (cfg["protocol.tasks"] == 4 and cfg["protocol.classes_per_task"] == 10
                and cfg["dataset.per_class"] >= 200 and cfg["fl.rounds_per_task"] == 50)

    task1 = [battery["accs"][("none", s)][0] for s in SEEDS]
    forgotten = all(a < 0.2 for a in task1)
    runtimes = [battery["durations"][("none", s)] for s in SEEDS]
    fast_enough = max(runtimes) < 900.0

    ok = setup_ok and forgotten and fast_enough
    _verdict(capsys, 5, ok,
             f"4x10 split, 50 rounds/task, no rehearsal: final task-1 accuracy "
             f"{[round(a, 3) for a in task1]} all < 0.2; "
             f"slowest run {max(runtimes):.0f}s < 900s")


# ---------------------------------------------------------------------------
# Criterion 6: rehearsal ordering and the gap to the offline reference
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_rehearsal_ordering_and_offline_gap(capsys, battery):
    m = battery["means"]
    ordering = m["none"] < m["ver_nosst"] < m["ver_sst"]
    offline_gap = m["offline"] - m["ver_sst"]
    gap_ok = offline_gap <= 0.10
    margin = m["ver_sst"] - m["none"]
    margin_ok = margin >= 0.25

    ok = ordering and gap_ok and margin_ok
    _verdict(capsys, 6, ok,
             f"seed-mean accuracy none {m['none']:.3f} < VER {m['ver_nosst']:.3f} "
             f"< VER+SST {m['ver_sst']:.3f}; offline gap {offline_gap:+.3f} <= 0.10; "
             f"margin over none {margin:.3f} >= 0.25")


# ---------------------------------------------------------------------------
# Criterion 7: deterministic EBR and sampled VER reach parity under SST
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_07_ebr_ver_parity(capsys, battery):
    m = battery["means"]
    gap = abs(m["ebr_sst"] - m["ver_sst"])
    ok = gap <= 0.05
    _verdict(capsys, 7, ok,
             f"|EBR+SST {m['ebr_sst']:.3f} - VER+SST {m['ver_sst']:.3f}| "
             f"= {gap:.3f} <= 0.05")


# ---------------------------------------------------------------------------
# Criterion 8: enrollment scenarios are legal and bounded by scenario 1
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_enrollment_scenarios(capsys, battery):
    legal = True
    for kind in SCHEDULE_KINDS:
        for n_tasks in (1, 3, 5):
            for extra in (0, 3, 7):
                for seed in range(3):
                    try:
                        make_schedule(kind, n_tasks + extra, n_tasks, RngStream(seed))
                    except ContractViolation:
                        legal = False

    one_per_task = True
    for seed in range(3):
        sched = make_schedule("scattered", 6, 6, RngStream(seed))
        for t in range(6):
            if len(sched.active_clients(t)) != 1:
                one_per_task = False
        if not np.all((sched.grid == ACTIVE).sum(axis=1) == 1):
            one_per_task = False

    m = battery["means"]
    bounded = (m["decreasing"] <= m["ver_sst"]
               and m["increasing"] <= m["ver_sst"]
               and m["scattered"] <= m["ver_sst"])

    ok = legal and one_per_task and bounded
    _verdict(capsys, 8, ok,
             f"all generated schedules legal: {legal}; scattered square grid has "
             f"exactly one active client per task: {one_per_task}; seed-mean "
             f"accuracies decreasing {m['decreasing']:.3f} / increasing "
             f"{m['increasing']:.3f} / scattered {m['scattered']:.3f} all <= "
             f"fully enrolled {m['ver_sst']:.3f}")


# ---------------------------------------------------------------------------
# Criterion 9: runs are reproducible byte for byte
# ---------------------------------------------------------------------------

CLI_PAIRS = {
    "seed": "5",
    "dataset.kind": "synthetic",
    "dataset.seed": "9",
    "dataset.classes": "4",
    "dataset.per_class": "20",
    "dataset.spread": "0.15",
    "dataset.image_size": "4",
    "protocol.kind": "split",
    "protocol.tasks": "2",
    "protocol.classes_per_task": "2",
    "protocol.val_fraction": "0.25",
    "strategy.kind": "ver_sampled",
    "strategy.rho": "0.25",
    "fl.rounds_per_task": "3",
    "fl.n_clients": "2",
    "fl.clients_per_round": "2",
    "fl.local_iters": "2",
    "fl.s_max": "2",
    "fl.eta": "0.05",
    "fl.eta_s": "0.02",
    "fl.batch_size": "8",
    "model.beta": "0.001",
    "model.embed_dim": "6",
    "model.hidden": "12",
    "model.arch": "mlp",
    "model.classifier_hidden": "12",
    "model.classifier_layers": "1",
    "model.pretrain_epochs": "1",
    "model.pretrain_lr": "0.05",
}


def test_criterion_09_byte_identical_reproducibility(capsys, tmp_path):
    def write_cfg(name, out):
        path = tmp_path / name
        pairs = dict(CLI_PAIRS, out=str(out))
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        return path

    cfg_a = write_cfg("a.cfg", tmp_path / "a")
    cfg_b = write_cfg("b.cfg", tmp_path / "b")
    cfg_c = write_cfg("c.cfg", tmp_path / "c")

    assert cli.main(["run", str(cfg_a), "--quiet"]) == 0
    assert cli.main(["run", str(cfg_b), "--quiet"]) == 0
    rounds_a = (tmp_path / "a" / "rounds.csv").read_bytes()
    repeat_identical = (tmp_path / "b" / "rounds.csv").read_bytes() == rounds_a

    assert cli.main(["run", str(cfg_c), "--stop-after-round", "3", "--quiet"]) == 0
    assert cli.main(["run", str(cfg_c), "--resume", str(tmp_path / "c" / "checkpoint"),
                     "--quiet"]) == 0
    resume_identical = (
        (tmp_path / "c" / "rounds.csv").read_bytes() == rounds_a
        and (tmp_path / "c" / "summary.json").read_bytes()
        == (tmp_path / "a" / "summary.json").read_bytes())

    n_rows = len(rounds_a.decode().splitlines()) - 1
    ok = repeat_identical and resume_identical and n_rows == 6
    _verdict(capsys, 9, ok,
             f"rounds.csv byte-identical across two identical runs: {repeat_identical}; "
             f"interrupted+resumed run byte-identical: {resume_identical}")


# ---------------------------------------------------------------------------
# Criterion 10: uploaded payload types respect the strategy's privacy class
# ---------------------------------------------------------------------------


def test_criterion_10_upload_payload_privacy(capsys, monkeypatch):
    sampled_server, _, sampled_state = collect_admitted_payloads(monkeypatch, "ver_sampled")
    # uploads are records, checked by payload type; the server buffer is
    # columns, checked by schema: no stats column may exist under ver_sampled
    sampled_columns = set(sampled_state.server_buffer.columns)
    sampled_ok = (len(sampled_server) > 0
                  and GaussianStats not in set(sampled_server)
                  and len(sampled_state.server_buffer) > 0
                  and not sampled_columns & {"mu", "log_sigma"})

    stats_server, _, stats_state = collect_admitted_payloads(monkeypatch, "ver_stats")
    stats_ok = (len(stats_server) > 0
                and set(stats_server) == {GaussianStats}
                and len(stats_state.server_buffer) > 0
                and set(stats_state.server_buffer.columns) == {"mu", "log_sigma"})

    ok = sampled_ok and stats_ok
    _verdict(capsys, 10, ok,
             f"sampled VER shipped {len(sampled_server)} records, zero Gaussian "
             f"stats: {sampled_ok}; stats VER shipped {len(stats_server)} records, "
             f"all Gaussian stats: {stats_ok}")
