"""Config parsing, presets, manifests, and the command line end to end.

CLI tests call main() in process and assert on exit codes and the files a
run leaves behind; the experiment configs are kept tiny so each run takes
well under a second.
"""

import json
import resource
import struct

import numpy as np
import pytest

import filver.cli as cli
import oracles
import reference
import test_golden
from filver import config, federation, models, storage
from filver.config import (
    DATA_ROOT_ENV,
    KEY_TABLE,
    PRESET_STRATEGY_SWEEPS,
    PRESETS,
    blas_core,
    blas_thread_count,
    blas_threads,
    build_manifest,
    parse_config,
    parse_pairs,
    preset_config,
)
from filver.errors import ConfigError
from filver.rehearsal import load_buffer, save_buffer

# ---------------------------------------------------------------------------
# parse_pairs and parse_config
# ---------------------------------------------------------------------------


def test_empty_pairs_fall_back_to_defaults_everywhere():
    cfg = parse_pairs({})
    assert set(cfg.defaulted) == set(KEY_TABLE)
    assert cfg["seed"] == 1
    assert cfg["strategy.kind"] == "ver_sampled"
    assert cfg["model.conv_channels"] == (16, 32)


def test_parse_pairs_collects_every_problem_at_once():
    with pytest.raises(ConfigError) as err:
        parse_pairs({
            "strategy.rho": "1.5",
            "fl.eta": "fast",
            "protocol.sides": "3",
        }, origin="unit")
    exc = err.value
    assert exc.origin == "unit"
    assert len(exc.problems) == 3
    text = "\n".join(exc.problems)
    assert "strategy.rho" in text and "[0, 1]" in text
    assert "fl.eta" in text
    assert "protocol.sides: unknown key" in text
    # the rendered message carries the origin and one line per problem
    assert "unit" in str(exc)


def test_parse_pairs_range_checks_name_the_key():
    for key, bad in [("seed", "-1"), ("fl.batch_size", "0"), ("dataset.classes", "1"),
                     ("protocol.val_fraction", "1.0"), ("model.beta", "-0.1")]:
        with pytest.raises(ConfigError) as err:
            parse_pairs({key: bad})
        assert any(p.startswith(key) for p in err.value.problems)


def test_parse_pairs_bool_and_pair_parsers():
    cfg = parse_pairs({"dataset.transpose": "off", "model.conv_channels": "4, 8"})
    assert cfg["dataset.transpose"] is False
    assert cfg["model.conv_channels"] == (4, 8)
    with pytest.raises(ConfigError) as err:
        parse_pairs({"dataset.transpose": "maybe", "model.conv_channels": "8"})
    assert len(err.value.problems) == 2


@pytest.mark.parametrize("key,value", [
    ("fl.rounds_per_task", 2.5), ("seed", True), ("model.conv_channels", [3, 4]), ("fl.eta", None),
])
def test_parse_pairs_refuses_a_value_that_is_not_a_string(key, value):
    # such a value once skipped parsing and was accepted, or raised a bare TypeError
    with pytest.raises(ConfigError) as err:
        parse_pairs({key: value})
    assert err.value.problems == [
        f"{key}: value {value!r} is a {type(value).__name__}, not a string"]


def test_parse_config_file_comments_duplicates_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# tiny experiment\n"
        "seed = 3   # trailing comment\n"
        "\n"
        "fl.n_clients = 6\n")
    cfg = parse_config(path)
    assert cfg["seed"] == 3
    assert cfg["fl.n_clients"] == 6

    cfg = parse_config(path, overrides={"seed": "9"})
    assert cfg["seed"] == 9

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 3\nseed = 4\njust words\n")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = "\n".join(err.value.problems)
    assert "duplicate key" in text
    assert "expected key = value" in text
    assert err.value.origin == str(bad)


def test_cross_field_validation():
    with pytest.raises(ConfigError) as err:
        parse_pairs({"dataset.kind": "idx"})
    text = "\n".join(err.value.problems)
    assert "dataset.images" in text and "dataset.labels" in text

    with pytest.raises(ConfigError) as err:
        parse_pairs({"dataset.classes": "4", "protocol.tasks": "4",
                     "protocol.classes_per_task": "2"})
    assert any("needs 8 classes" in p for p in err.value.problems)

    with pytest.raises(ConfigError) as err:
        parse_pairs({"fl.n_clients": "2", "fl.clients_per_round": "5"})
    assert any("exceeds fl.n_clients" in p for p in err.value.problems)

    with pytest.raises(ConfigError) as err:
        parse_pairs({"scenario": "scattered", "fl.n_clients": "2", "protocol.tasks": "4"})
    assert any("at least as many clients as tasks" in p for p in err.value.problems)


def test_a_one_class_split_task_is_a_config_error():
    # its classifier would have one class: once built, pretrained and refused
    # only then, with exit 3.  The permuted protocol ignores the key
    with pytest.raises(ConfigError) as err:
        parse_pairs({"protocol.classes_per_task": "1"})
    assert [p for p in err.value.problems if p.startswith("protocol.classes_per_task")]
    parse_pairs({"protocol.kind": "permuted", "protocol.classes_per_task": "1"})


@pytest.mark.parametrize("size,refused", [(15, True), (16, False)])
def test_conv_images_under_16_pixels_are_a_config_error(size, refused):
    # two 5x5 conv stages, each with a 2x2 pool, take 16 pixels a side to 1;
    # 15 once passed parsing and failed in the encoder's constructor
    pairs = {"dataset.image_size": str(size), "model.arch": "conv"}
    if refused:
        with pytest.raises(ConfigError) as err:
            parse_pairs(pairs)
        assert any("dataset.image_size" in p and "model.arch" in p for p in err.value.problems)
        return
    cfg = parse_pairs(dict(TINY_PAIRS, **pairs))
    models.EncoderModel(cfg.model_config(cfg.build_tasks()).encoder)
    assert parse_pairs({"dataset.image_size": str(size - 1), "model.arch": "mlp"})


def test_val_files_must_come_together(tmp_path):
    img = tmp_path / "imgs.idx"
    lab = tmp_path / "labs.idx"
    img.write_bytes(b"")
    lab.write_bytes(b"")
    with pytest.raises(ConfigError) as err:
        parse_pairs({"dataset.kind": "idx", "dataset.images": str(img),
                     "dataset.labels": str(lab), "dataset.val_images": str(img)})
    assert any("must be given together" in p for p in err.value.problems)


def test_resolve_path_uses_data_root(monkeypatch, tmp_path):
    cfg = parse_pairs({})
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    assert cfg.resolve_path("data/x.idx") == "data/x.idx"
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    assert cfg.resolve_path("data/x.idx") == str(tmp_path / "data" / "x.idx")
    assert cfg.resolve_path("/abs/x.idx") == "/abs/x.idx"


# ---------------------------------------------------------------------------
# Derived objects
# ---------------------------------------------------------------------------


TINY_PAIRS = {
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
    "fl.rounds_per_task": "2",
    "fl.n_clients": "2",
    "fl.clients_per_round": "2",
    "fl.local_iters": "2",
    "fl.s_max": "1",
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


def tiny_config(**extra):
    pairs = dict(TINY_PAIRS)
    pairs.update({k: str(v) for k, v in extra.items()})
    return parse_pairs(pairs)


def test_derived_objects_from_tiny_config():
    cfg = tiny_config()
    tasks = cfg.build_tasks()
    assert tasks.n_tasks == 2
    assert tasks.class_count == 2  # split protocol relabels within each task

    fl = cfg.fl_config()
    assert (fl.rounds_per_task, fl.n_clients, fl.clients_per_round) == (2, 2, 2)

    strategy = cfg.strategy_config()
    assert strategy.kind == "ver_sampled" and strategy.rho == 0.25

    model = cfg.model_config(tasks)
    enc = model.encoder
    assert enc.kind == "vee"  # sampled VER trains a variational encoder
    assert enc.arch == "mlp"
    assert enc.input_dims == (16,)  # mlp flattens the 4x4 images
    assert enc.embed_dim == 6

    cls = model.classifier
    assert cls.classes == 2 and cls.hidden == 12 and cls.layers == 1
    assert (model.beta, model.pretrain_epochs, model.pretrain_lr) == (0.001, 1, 0.05)


def test_clients_per_round_zero_means_half():
    cfg = tiny_config(**{"fl.n_clients": 6, "fl.clients_per_round": 0})
    assert cfg.fl_config().clients_per_round == 3
    cfg = tiny_config(**{"fl.n_clients": 1, "fl.clients_per_round": 0})
    assert cfg.fl_config().clients_per_round == 1


# ---------------------------------------------------------------------------
# Presets and manifests
# ---------------------------------------------------------------------------


def test_every_preset_parses():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg["fl.rounds_per_task"] >= 1


def test_scenario_presets_differ_only_in_schedule():
    kinds = {
        "scenario1-split4": "fully_enrolled",
        "scenario2-split4": "decreasing",
        "scenario3-split4": "increasing",
        "scenario4-split4": "scattered",
    }
    for name, scenario in kinds.items():
        cfg = preset_config(name)
        assert cfg["scenario"] == scenario
        assert cfg["fl.s_max"] == 40
        assert cfg["model.beta"] == 1e-5
        assert cfg["model.conv_channels"] == (8, 16)


def test_preset_overrides_win():
    cfg = preset_config("desk-split4", {"seed": "123", "out": "elsewhere"})
    assert cfg["seed"] == 123
    assert cfg["out"] == "elsewhere"


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError):
        preset_config("desk-split5")


def test_sweep_presets_reference_real_strategies():
    for name, kinds in PRESET_STRATEGY_SWEEPS.items():
        assert name in PRESETS
        assert len(kinds) >= 2
        for kind in kinds:
            cfg = preset_config(name, {"strategy.kind": kind})
            assert cfg["strategy.kind"] == kind


def test_manifest_flags_defaults_that_are_not_reference_values(monkeypatch):
    pairs = dict(TINY_PAIRS)
    del pairs["seed"]               # our default, not a reference value
    del pairs["fl.rounds_per_task"]  # reference default
    cfg = parse_pairs(pairs)
    manifest = build_manifest(cfg, "2026-01-01T00:00:00+00:00", 1.5)
    assert "seed" in manifest["defaults_used"]
    assert "fl.rounds_per_task" in manifest["defaults_used"]
    assert "seed" in manifest["non_reference_defaults"]
    assert "fl.rounds_per_task" not in manifest["non_reference_defaults"]
    assert manifest["master_seed"] == 1
    assert manifest["started_at"] == "2026-01-01T00:00:00+00:00"
    assert manifest["duration_s"] == 1.5
    assert "config.py" in manifest["module_checksums"]
    assert "federation.py" in manifest["module_checksums"]
    assert manifest["numpy"] == np.__version__
    assert manifest["blas_core"] == blas_core()
    assert manifest["blas_threads"] == blas_thread_count()
    if blas_core() != "unknown":
        with blas_threads(2):
            assert build_manifest(cfg, "2026-01-01T00:00:00+00:00", 1.5)["blas_threads"] == 2
    # json-serializable throughout
    json.dumps(manifest)
    # without numpy's bundled OpenBLAS the core and thread count are unknown
    monkeypatch.setattr(config, "openblas_libraries", lambda: [])
    manifest = build_manifest(cfg, "2026-01-01T00:00:00+00:00", 1.5)
    assert manifest["blas_core"] == manifest["blas_threads"] == "unknown"


# ---------------------------------------------------------------------------
# CLI: runs and their artifacts
# ---------------------------------------------------------------------------


def write_tiny_cfg(path, out_dir, **extra):
    pairs = dict(TINY_PAIRS)
    pairs["out"] = str(out_dir)
    pairs.update({k: str(v) for k, v in extra.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return path


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_base")
    cfg = write_tiny_cfg(root / "exp.cfg", root / "out")
    rc = cli.main(["run", str(cfg), "--quiet"])
    assert rc == 0
    return root


def test_run_writes_rounds_summary_and_manifest(baseline_run):
    out = baseline_run / "out"
    lines = (out / "rounds.csv").read_text().splitlines()
    assert lines[0] == "round,task,acc_task_1,acc_task_2,mean_loss,n_clients"
    assert len(lines) == 1 + 4  # 2 tasks x 2 rounds
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and first[-1] == "2"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["strategy"] == "ver_sampled"
    assert summary["scenario"] == "fully_enrolled"
    assert summary["seed"] == 5
    assert summary["rounds_completed"] == 4
    assert len(summary["final_task_accuracies"]) == 2
    assert summary["average_accuracy"] == pytest.approx(
        np.mean(summary["final_task_accuracies"]))
    assert len(summary["enrollment"]) == 2  # one rendered line per client

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert manifest["config"]["out"] == str(out)
    # the peak of the run's process (this one) when the manifest was written
    now = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    assert 0 < manifest["peak_rss_mib"] <= now
    # cli.main ran the experiment on one BLAS thread
    assert manifest["blas_threads"] == (1 if blas_core() != "unknown" else "unknown")


def test_the_cli_runs_blas_on_one_thread_whatever_the_caller_set(tmp_path):
    # on two threads a padded 64-row conv encoder pass sums in another order,
    # and the ebr conv golden config wrote other bytes before cli.main
    # pinned one thread
    core, want = test_golden.recorded(test_golden.ROUNDS_SHA256[("ebr", "conv")])
    with blas_threads(2):
        assert test_golden.rounds_digest(tmp_path, "ebr", "conv") == want, f"OpenBLAS core {core}"
        assert blas_thread_count() in (2, "unknown")  # the caller's setting is restored


def test_identical_configs_give_byte_identical_outputs(baseline_run, tmp_path):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["run", str(cfg), "--quiet"]) == 0
    base = (baseline_run / "out" / "rounds.csv").read_bytes()
    assert (tmp_path / "out" / "rounds.csv").read_bytes() == base
    assert ((tmp_path / "out" / "summary.json").read_bytes()
            == (baseline_run / "out" / "summary.json").read_bytes())


def test_a_config_that_sets_threads_is_refused(tmp_path, capsys):
    # clients train one after another; there is no thread count to set
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out", threads=2)
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    assert "threads: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stop_and_resume_reproduce_the_uninterrupted_run(baseline_run, tmp_path):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["run", str(cfg), "--stop-after-round", "2", "--quiet"]) == 0
    ckpt = tmp_path / "out" / "checkpoint"
    assert (ckpt / "meta.json").exists()
    partial = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
    assert len(partial) == 1 + 2

    assert cli.main(["run", str(cfg), "--resume", str(ckpt), "--quiet"]) == 0
    assert ((tmp_path / "out" / "rounds.csv").read_bytes()
            == (baseline_run / "out" / "rounds.csv").read_bytes())
    assert ((tmp_path / "out" / "summary.json").read_bytes()
            == (baseline_run / "out" / "summary.json").read_bytes())


@pytest.mark.parametrize("stop", ["0", "-1"])
def test_stop_after_round_below_one_is_refused(tmp_path, capsys, stop):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["run", str(cfg), "--stop-after-round", stop, "--quiet"]) == 2
    assert f"--stop-after-round must be at least 1, got {stop}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rounds.csv").exists()
    assert not (tmp_path / "out" / "checkpoint").exists()


def stopped_run(directory, stop=2, **pairs):
    """(config, checkpoint dir, rounds.csv bytes) of the tiny run with
    `pairs` added, in `directory`, stopped after round `stop`."""
    directory.mkdir(exist_ok=True)
    cfg = write_tiny_cfg(directory / "exp.cfg", directory / "out", **pairs)
    assert cli.main(["run", str(cfg), "--stop-after-round", str(stop), "--quiet"]) == 0
    return cfg, directory / "out" / "checkpoint", (directory / "out" / "rounds.csv").read_bytes()


def refused_resume(capsys, cfg, ckpt, rows, *args) -> str:
    """stderr of a resume of `cfg` from `ckpt`, which must exit 3 and leave
    rounds.csv holding `rows`."""
    capsys.readouterr()
    assert cli.main(["run", str(cfg), "--resume", str(ckpt), "--quiet", *args]) == 3
    assert (ckpt.parent / "rounds.csv").read_bytes() == rows
    return capsys.readouterr().err


@pytest.mark.parametrize("stop", ["2", "3"])
def test_resume_refuses_a_stop_round_not_past_the_checkpoint(tmp_path, capsys, stop):
    cfg, ckpt, rows = stopped_run(tmp_path, 3)
    saved = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    err = refused_resume(capsys, cfg, ckpt, rows, "--stop-after-round", stop)
    assert f"stop_after_round {stop} is not past the checkpoint's round 3" in err
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == saved


def test_resume_refuses_a_naive_checkpoint_of_raw_samples(tmp_path, capsys):
    # naive buffers once held the raw samples themselves (payload tag 0);
    # they now hold embeddings, so such a snapshot is refused before any round
    cfg, ckpt, rows = stopped_run(tmp_path, **{"strategy.kind": "naive"})
    raw = [reference.Row({"x": np.full((4, 4), 0.5)}, 1, 0, 0)]  # a 4x4 image
    oracles.write_snapshot(ckpt / "client_1.bin", None, raw)
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(ckpt / "client_1.bin") in err and "holds raw samples" in err
    assert "Traceback" not in err


def test_resume_after_the_last_checkpoint_keeps_only_checkpointed_rows(baseline_run, tmp_path):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    # the run goes on one round past its round-3 checkpoint, as after a crash
    assert cli.main(["run", str(cfg), "--checkpoint-every", "3", "--quiet"]) == 0
    ckpt = tmp_path / "out" / "checkpoint"
    assert json.loads((ckpt / "meta.json").read_text())["global_round"] == 3
    assert cli.main(["run", str(cfg), "--resume", str(ckpt), "--quiet"]) == 0
    lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
    assert ((tmp_path / "out" / "rounds.csv").read_bytes()
            == (baseline_run / "out" / "rounds.csv").read_bytes())


def test_resume_refuses_a_rounds_csv_shorter_than_the_checkpoint(tmp_path, capsys):
    cfg, ckpt, _ = stopped_run(tmp_path, 3)
    rounds = ckpt.parent / "rounds.csv"
    short = "".join(rounds.read_text().splitlines(keepends=True)[:3])  # header + 2 rows
    rounds.write_text(short)
    err = refused_resume(capsys, cfg, ckpt, short.encode())
    assert "2 rows" in err and "round 3" in err


def test_resume_under_a_different_seed_is_a_contract_violation(tmp_path, capsys):
    cfg, ckpt, rows = stopped_run(tmp_path, 1)
    assert "contract violation" in refused_resume(capsys, cfg, ckpt, rows, "--seed", "6")


@pytest.mark.parametrize("key,override", [("strategy", {"strategy.kind": "ver_stats"}),
                                          ("n_clients", {"fl.n_clients": "3"})])
def test_resume_under_a_different_strategy_or_client_count_is_refused(tmp_path, capsys,
                                                                       key, override):
    _, ckpt, rows = stopped_run(tmp_path, 1)
    changed = write_tiny_cfg(tmp_path / "changed.cfg", tmp_path / "out", **override)
    err = refused_resume(capsys, changed, ckpt, rows)
    meta_key = {"strategy": "strategy.kind", "n_clients": "fl.n_clients"}[key]
    saved = json.loads((ckpt / "meta.json").read_text())[meta_key]
    assert meta_key in err and repr(saved) in err


def test_resume_under_any_changed_fl_or_strategy_setting_is_refused(tmp_path, capsys):
    _, ckpt, rows = stopped_run(tmp_path, 1)
    for key, value, message in [("strategy.rho", "0.9", "strategy.rho 0.25, this run has 0.9"),
                                ("fl.s_max", "3", "fl.s_max 1, this run has 3")]:
        changed = write_tiny_cfg(tmp_path / "changed.cfg", tmp_path / "out", **{key: value})
        assert message in refused_resume(capsys, changed, ckpt, rows)


def test_a_refused_resume_leaves_rounds_csv_untouched(tmp_path, capsys):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    # round 4 is written after the round-3 checkpoint, as before a crash
    assert cli.main(["run", str(cfg), "--checkpoint-every", "3", "--quiet"]) == 0
    before = (tmp_path / "out" / "rounds.csv").read_bytes()
    assert len(before.splitlines()) == 1 + 4
    changed = write_tiny_cfg(tmp_path / "changed.cfg", tmp_path / "out", **{"strategy.rho": "0.9"})
    assert "strategy.rho" in refused_resume(capsys, changed, tmp_path / "out" / "checkpoint",
                                            before)


@pytest.mark.parametrize("key,value,message", [
    ("scenario", "increasing", "scenario.schedule"),
    ("model.hidden", "16", "encoder.hidden 12, this run has 16"),
    ("model.classifier_hidden", "16", "classifier.hidden 12, this run has 16"),
    ("model.pretrain_lr", "0.07", "model.pretrain_lr 0.05, this run has 0.07"),
])
def test_resume_under_a_changed_scenario_or_model_setting_is_refused(tmp_path, capsys, key,
                                                                      value, message):
    _, ckpt, rows = stopped_run(tmp_path, 1)
    changed = write_tiny_cfg(tmp_path / "changed.cfg", tmp_path / "out", **{key: value})
    assert message in refused_resume(capsys, changed, ckpt, rows)


@pytest.mark.parametrize("damage,message", [
    (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "fl.n_clients"}),
     "has no 'fl.n_clients'"),
    (lambda meta: json.dumps(meta)[:-2], "is not valid JSON"),
    # a bool is an int in Python; true once resumed as round 1
    (lambda meta: json.dumps({**meta, "global_round": True}),
     "has global_round True, not a round count"),
    (lambda meta: json.dumps({**meta, "format": 99}),
     "has format 99, this program reads format 1"),
    (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "format"}),
     "has no 'format'"),
    # the CLI once blamed rounds.csv for holding fewer than 99 rows
    (lambda meta: json.dumps({**meta, "global_round": 99}),
     "has global_round 99, past this run's 4 rounds"),
], ids=["missing-key", "invalid-json", "bool-round", "format-99", "no-format", "round-99"])
def test_resume_refuses_a_broken_meta_json(tmp_path, capsys, damage, message):
    cfg, ckpt, rows = stopped_run(tmp_path, 1)
    meta_path = ckpt / "meta.json"
    meta_path.write_text(damage(json.loads(meta_path.read_text())))
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(meta_path) in err and message in err


def test_resume_refuses_a_checkpoint_without_meta_json(tmp_path, capsys):
    # the CLI leaves the refusal to run_experiment's loader, and rounds.csv as it was
    cfg, ckpt, rows = stopped_run(tmp_path, 1)
    (ckpt / "meta.json").unlink()
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert f"no checkpoint metadata at {ckpt / 'meta.json'}" in err


def test_resume_refuses_a_model_bin_of_another_encoder_kind(tmp_path, capsys):
    # noise pretrains a random_projection encoder with ebr's layout, so only
    # model.bin's header tells the two apart
    _, noise, _ = stopped_run(tmp_path / "noise", 1, **{"strategy.kind": "noise"})
    cfg, ckpt, rows = stopped_run(tmp_path, 1, **{"strategy.kind": "ebr"})
    (ckpt / "model.bin").write_bytes((noise / "model.bin").read_bytes())
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert (f"model checkpoint {ckpt / 'model.bin'} has encoder kind 'random_projection', "
            f"this run's model has 'ebr'") in err


def test_resume_refuses_a_buffer_snapshot_with_mixed_payload_tags(tmp_path, capsys):
    cfg, ckpt, rows = stopped_run(tmp_path, 1)
    mixed = [reference.Row({"z": np.zeros(4)}, 0, 0, 0),
             reference.Row({"mu": np.zeros(4), "log_sigma": np.zeros(4)}, 1, 0, 0)]
    oracles.write_snapshot(ckpt / "server_buffer.bin", None, mixed)
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert "mixes payload tags 1 (EmbeddingPayload), 2 (GaussianStats)" in err


@pytest.mark.parametrize("name", ["client_1.bin", "server_buffer.bin", "model.bin"])
def test_resume_refuses_a_missing_checkpoint_file(tmp_path, capsys, name):
    cfg, ckpt, rows = stopped_run(tmp_path)
    (ckpt / name).unlink()
    assert str(ckpt / name) in refused_resume(capsys, cfg, ckpt, rows)


@pytest.mark.parametrize("name,message", [
    ("model.bin", "has bytes after its last segment"),
    ("server_buffer.bin", "bytes after its header"),
    ("client_1.bin", "bytes after its header"),
])
def test_resume_refuses_a_checkpoint_file_with_trailing_bytes(tmp_path, capsys, name, message):
    # appended bytes once loaded silently: the reader stopped at the last
    # segment, or at the header's count of records
    cfg, ckpt, rows = stopped_run(tmp_path)
    with open(ckpt / name, "ab") as f:
        f.write(b"\x00\x01\x02\x03")
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(ckpt / name) in err and message in err


def _with_u32(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack("<I", value) + data[offset + 4:]


@pytest.mark.parametrize("name,damage,message", [
    ("model.bin", lambda data: data[:-10], "truncated file"),
    ("server_buffer.bin", lambda data: data[:struct.calcsize("<4sIqdI") + 10],
     "expected a frame's tag and ids"),
    ("model.bin", lambda data: b"XXXX" + data[4:], "is not a model checkpoint: bad magic"),
    ("client_1.bin", lambda data: b"XXXX" + data[4:], "is not a buffer snapshot: bad magic"),
    # the header (magic, version, encoder kind, d, K) with a segment count of 0
    ("model.bin", lambda data: data[:20 + struct.unpack_from("<I", data, 8)[0]] + bytes(4),
     "has no parameter segments"),
    ("model.bin", lambda data: data.replace(b"enc.fc1.w", b"\xffnc.fc1.w", 1),
     "holds a string that is not UTF-8"),
    # ParamVector refuses a repeated name; the loader adds the path
    ("model.bin", lambda data: data.replace(b"enc.fc2.w", b"enc.fc1.w", 1),
     "duplicate parameter names"),
    # a length past the end of the file: the first dim of enc.fc1.w, and the
    # first frame's column dim, once asked for 34 GB and ended in MemoryError
    ("model.bin", lambda data: _with_u32(data, data.index(b"enc.fc1.w") + 13, 0xFFFFFFFF),
     "expected array payload"),
    ("server_buffer.bin", lambda data: _with_u32(data, struct.calcsize("<4sIqdI") + 29,
                                                 0xFFFFFFFF), "expected array payload"),
], ids=["model-cut", "snapshot-cut-in-first-frame", "model-magic", "snapshot-magic",
        "model-no-segments", "model-name-not-utf8", "model-name-repeated",
        "model-length-past-end", "snapshot-length-past-end"])
def test_resume_refusals_of_a_cut_or_foreign_checkpoint_file_name_it(tmp_path, capsys, name,
                                                                      damage, message):
    cfg, ckpt, rows = stopped_run(tmp_path)
    path = ckpt / name
    path.write_bytes(damage(path.read_bytes()))
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(path) in err and message in err
    assert "Traceback" not in err


def _overfill(buffer):
    """The buffer's rows repeated to one row past its capacity."""
    rows = np.arange(buffer.capacity + 1) % len(buffer)
    buffer.columns = {name: column[rows] for name, column in buffer.columns.items()}
    buffer.labels, buffer.tasks, buffer.rounds = (ids[rows] for ids in
                                                  (buffer.labels, buffer.tasks, buffer.rounds))


@pytest.mark.parametrize("name,damage,message", [
    ("server_buffer.bin", _overfill, "holds 17 rows, more than its capacity 16"),
    ("client_1.bin", lambda b: np.put(b.labels, 3, 99), "holds label 99, outside [0, 2)"),
    ("server_buffer.bin", lambda b: np.put(b.labels, 0, -1), "holds label -1, outside [0, 2)"),
    ("server_buffer.bin", lambda b: np.put(b.tasks, 5, 99), "holds task 99, outside [0, 2)"),
    # rounds 0 and 1 both belong to task 0 (two rounds a task)
    ("server_buffer.bin", lambda b: b.tasks.fill(1),
     "holds task 1 in round 0, which belongs to task 0"),
    # the checkpoint is at round 2, so its buffers hold rounds 0 and 1 only
    ("client_0.bin", lambda b: np.put(b.rounds, 0, 2), "holds round 2, outside [0, 2)"),
    ("server_buffer.bin", lambda b: np.put(b.columns["z"], 7, np.nan),
     "holds a non-finite value in column 'z'"),
    ("client_1.bin", lambda b: np.put(b.columns["z"], 0, -np.inf),
     "holds a non-finite value in column 'z'"),
    ("model.bin", lambda params, header: np.put(params.get("cls.cls1.w"), 4, np.nan),
     "holds a non-finite value in parameter 'cls.cls1.w'"),
    ("model.bin", lambda params, header: np.put(params.get("enc.fc1.b"), 0, np.inf),
     "holds a non-finite value in parameter 'enc.fc1.b'"),
    # the header's sizes were read and never checked
    ("model.bin", lambda params, header: header.update(embed_dim=99),
     "has embed dim 99, this run's model has 6"),
    ("model.bin", lambda params, header: header.update(classes=77),
     "has classes 77, this run's model has 2"),
], ids=["snapshot-over-capacity", "snapshot-label-99", "snapshot-label-negative",
        "snapshot-task-99", "snapshot-task-of-another-round", "snapshot-round-not-yet-run",
        "snapshot-nan", "snapshot-inf", "model-nan", "model-inf", "model-embed-dim-99",
        "model-classes-77"])
def test_resume_refusals_of_checkpoint_contents_name_the_file(tmp_path, capsys, name, damage,
                                                              message):
    # each file is well formed, but holds what no run writes: these once
    # resumed with exit 0 and other rows, or failed only in training, naming
    # no file
    cfg, ckpt, rows = stopped_run(tmp_path)
    path = ckpt / name
    if name == "model.bin":
        params, header = storage.load_model_checkpoint(path)
        damage(params, header)
        storage.save_model_checkpoint(path, params, header["encoder_kind"], header["embed_dim"],
                                      header["classes"])
    else:
        buffer = load_buffer(path)
        damage(buffer)
        save_buffer(path, buffer)
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(path) in err and message in err


@pytest.mark.parametrize("name", ["server_buffer.bin", "client_1.bin"])
@pytest.mark.parametrize("capacity", [5, 10**6])
def test_resume_refuses_a_buffer_snapshot_of_another_capacity(tmp_path, capsys, name, capacity):
    # the header's capacity (bytes 8-16) once replaced the capacity this run prices
    cfg, ckpt, rows = stopped_run(tmp_path)
    path = ckpt / name
    data = bytearray(path.read_bytes())
    assert struct.unpack_from("<q", data, 8)[0] not in (5, 10**6)
    struct.pack_into("<q", data, 8, capacity)
    path.write_bytes(bytes(data))
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(path) in err and f"has capacity {capacity}" in err


def test_resume_refuses_a_model_bin_of_another_layout(tmp_path, capsys):
    # model.bin was read by name alone, so a 10-wide classifier resumed a
    # 12-wide run and trained on
    _, other, _ = stopped_run(tmp_path / "other", **{"model.classifier_hidden": 10})
    cfg, ckpt, rows = stopped_run(tmp_path)
    path = ckpt / "model.bin"
    path.write_bytes((other / "model.bin").read_bytes())
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(path) in err
    assert ("has parameter ('cls.cls1.w', (6, 10)), this run's model has "
            "('cls.cls1.w', (6, 12))") in err


def test_resume_refuses_snapshots_of_another_strategys_columns(tmp_path, capsys, monkeypatch):
    # replay reads a batch's own columns, so resume checks them where they
    # enter; they were once refused only at the first replay, naming no file
    _, stats, _ = stopped_run(tmp_path / "stats", **{"strategy.kind": "ver_stats"})
    cfg, ckpt, rows = stopped_run(tmp_path)  # ver_sampled
    for name in ("server_buffer.bin", "client_0.bin", "client_1.bin"):
        (ckpt / name).write_bytes((stats / name).read_bytes())
    embedded = []
    monkeypatch.setattr(federation, "_embed_shards", lambda *args: embedded.append(args))
    err = refused_resume(capsys, cfg, ckpt, rows)
    assert str(ckpt / "server_buffer.bin") in err
    assert ("holds columns ('mu', 'log_sigma'), strategy 'ver_sampled' buffers hold ('z',)"
            in err)
    assert embedded == []  # refused before the embed stage, so before any round


def test_checkpoint_every_writes_checkpoints(tmp_path):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["run", str(cfg), "--checkpoint-every", "2", "--quiet"]) == 0
    meta = json.loads((tmp_path / "out" / "checkpoint" / "meta.json").read_text())
    assert meta["global_round"] == 4
    assert meta["strategy.kind"] == "ver_sampled"
    assert meta["strategy.rho"] == 0.25 and meta["fl.s_max"] == 1


def test_run_argument_validation(tmp_path, capsys):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["run"]) == 2
    assert cli.main(["run", str(cfg), "--preset", "desk-split4"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of a config file or --preset" in err
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--preset", "no-such-preset"])
    assert exc.value.code == 2


def test_run_reports_config_problems_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("strategy.rho = 1.5\nfl.made_up = 1\n")
    assert cli.main(["run", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "strategy.rho" in err
    assert "fl.made_up" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", [k.name for k in KEY_TABLE.values() if k.parse is float])
def test_a_non_finite_float_value_exits_2_before_pretraining(tmp_path, capsys, monkeypatch,
                                                             key, value):
    # an infinite learning rate or KL weight would otherwise fail only after
    # pretraining, and an infinite blob spread would train on noise
    pretrained = []
    monkeypatch.setattr(models, "pretrain_encoder", lambda *args, **kw: pretrained.append(args))
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out", **{key: value})
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    assert f"{key}: value {float(value)!r} is not a finite number" in capsys.readouterr().err
    assert pretrained == [] and not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CLI: idx datasets
# ---------------------------------------------------------------------------


def write_idx_pair(dirpath, n=80, side=4, classes=4, prefix="train"):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = np.repeat(np.arange(classes, dtype=np.uint8), n // classes)
    img_path = dirpath / f"{prefix}-images.idx"
    lab_path = dirpath / f"{prefix}-labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, side, side))
        f.write(images.tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())
    return img_path.name, lab_path.name


def test_run_loads_idx_datasets_through_the_data_root(tmp_path, monkeypatch):
    img_name, lab_name = write_idx_pair(tmp_path)
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": img_name,
           "dataset.labels": lab_name, "dataset.transpose": "false"})
    assert cli.main(["run", str(cfg), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rounds_completed"] == 4


def test_run_missing_idx_file_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": "nope.idx",
           "dataset.labels": "nope-labels.idx"})
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_an_idx_dataset_with_too_few_classes_for_the_split_is_a_config_error(
        tmp_path, monkeypatch, capsys):
    # the labels file holds 4 classes; 2 tasks x 9 classes need 18.  Refused
    # once the files load, before pretraining, like the synthetic shortfall
    img_name, lab_name = write_idx_pair(tmp_path)
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    pretrained = []
    monkeypatch.setattr(models, "pretrain_encoder", lambda *a, **k: pretrained.append(a))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": img_name, "dataset.labels": lab_name,
           "protocol.classes_per_task": "9"})
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "protocol.tasks" in err and "protocol.classes_per_task" in err
    assert str(tmp_path / lab_name) in err
    assert "needs 2 x 9 = 18 classes" in err and "has 4" in err
    assert pretrained == []


def test_an_idx_validation_file_lacking_a_tasks_classes_is_a_config_error(
        tmp_path, monkeypatch, capsys):
    # the train pair holds 4 classes, the val pair 2: task 2 (classes 2-3)
    # would have no validation rows.  Refused before pretraining
    img_name, lab_name = write_idx_pair(tmp_path)
    val_img_name, val_lab_name = write_idx_pair(tmp_path, n=20, classes=2, prefix="val")
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    pretrained = []
    monkeypatch.setattr(models, "pretrain_encoder", lambda *a, **k: pretrained.append(a))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": img_name, "dataset.labels": lab_name,
           "dataset.val_images": val_img_name, "dataset.val_labels": val_lab_name})
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / val_lab_name) in err
    assert "task 2 has no validation rows" in err
    assert pretrained == []


def test_an_idx_labels_file_of_one_class_is_a_config_error_when_permuted(
        tmp_path, monkeypatch, capsys):
    # permuted tasks keep the file's classes, so its classifier would have one
    img_name, lab_name = write_idx_pair(tmp_path, n=20, classes=1)
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": img_name, "dataset.labels": lab_name,
           "protocol.kind": "permuted"})
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / lab_name) in err and "at least two classes" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("side,rc", [(15, 2), (16, 0)])
def test_idx_images_under_16_pixels_are_a_config_error_for_conv(
        tmp_path, monkeypatch, capsys, side, rc):
    img_name, lab_name = write_idx_pair(tmp_path, side=side)
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": img_name, "dataset.labels": lab_name,
           "model.arch": "conv", "model.conv_channels": "2,3", "fl.rounds_per_task": "1"})
    assert cli.main(["run", str(cfg), "--quiet"]) == rc
    if rc:
        err = capsys.readouterr().err
        assert str(tmp_path / img_name) in err and "model.arch" in err and "15x15" in err


@pytest.mark.parametrize("protocol", ["permuted", "split"])
def test_an_idx_validation_file_with_classes_the_training_file_lacks(
        tmp_path, monkeypatch, capsys, protocol):
    # train classes 0-3, validation classes 0-5.  Permuted tasks score every
    # validation row, so a third of them could never be scored right, and
    # the run once exited 0: refused before pretraining.  A 2 x 2 split keeps
    # only classes 0-3, so it drops the others and runs
    img_name, lab_name = write_idx_pair(tmp_path)
    val_img_name, val_lab_name = write_idx_pair(tmp_path, n=24, classes=6, prefix="val")
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    cfg = write_tiny_cfg(
        tmp_path / "exp.cfg", tmp_path / "out",
        **{"dataset.kind": "idx", "dataset.images": img_name, "dataset.labels": lab_name,
           "dataset.val_images": val_img_name, "dataset.val_labels": val_lab_name,
           "protocol.kind": protocol})
    if protocol == "split":
        assert cli.main(["run", str(cfg), "--quiet"]) == 0
        return
    pretrained = []
    monkeypatch.setattr(models, "pretrain_encoder", lambda *a, **k: pretrained.append(a))
    assert cli.main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert (f"validation labels file {tmp_path / val_lab_name} holds classes [4, 5] that "
            f"training labels file {tmp_path / lab_name} lacks") in err
    assert pretrained == [] and not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CLI: multi-strategy sweeps
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_sweep_preset(monkeypatch):
    pairs = dict(TINY_PAIRS)
    del pairs["seed"]
    monkeypatch.setitem(cli.PRESETS, "tiny-sweep", pairs)
    monkeypatch.setitem(cli.PRESET_STRATEGY_SWEEPS, "tiny-sweep", ("ebr", "naive"))
    return "tiny-sweep"


def test_sweep_preset_runs_every_strategy(tiny_sweep_preset, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = cli.main(["run", "--preset", tiny_sweep_preset, "--out", str(out),
                   "--seed", "5", "--quiet"])
    assert rc == 0
    merged = json.loads((out / "summary.json").read_text())
    assert sorted(merged["strategies"]) == ["ebr", "naive"]
    for kind in ("ebr", "naive"):
        sub = json.loads((out / kind / "summary.json").read_text())
        assert sub["strategy"] == kind
        assert (out / kind / "rounds.csv").exists()


def test_sweep_preset_rejects_resume_flags(tiny_sweep_preset, tmp_path, capsys):
    rc = cli.main(["run", "--preset", tiny_sweep_preset, "--out", str(tmp_path),
                   "--stop-after-round", "1"])
    assert rc == 2
    assert "do not apply" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: compare
# ---------------------------------------------------------------------------


def write_summary(dirpath, accs):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "summary.json").write_text(json.dumps({
        "strategy": "ebr", "scenario": "fully_enrolled", "seed": 1,
        "rounds_completed": 4, "final_task_accuracies": accs,
        "average_accuracy": sum(accs) / len(accs), "enrollment": []}))
    return dirpath


def test_compare_prints_deltas_and_csv(tmp_path, capsys):
    a = write_summary(tmp_path / "a", [0.5, 0.5])
    b = write_summary(tmp_path / "b", [0.7, 0.6])
    csv_path = tmp_path / "table.csv"
    rc = cli.main(["compare", str(a), str(b), "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "task_1" in out and "avg" in out
    assert "+0.200" in out and "+0.100" in out and "+0.150" in out
    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == "run,task_1,task_2,avg"
    assert any(line.startswith("delta") for line in csv_lines)


def test_compare_identical_runs_have_zero_deltas(baseline_run, tmp_path, capsys):
    cfg = write_tiny_cfg(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["run", str(cfg), "--quiet"]) == 0
    rc = cli.main(["compare", str(baseline_run / "out"), str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+0.000" in out
    assert "-0." not in out


def test_compare_argument_and_summary_errors(tmp_path, capsys):
    a = write_summary(tmp_path / "a", [0.5, 0.5])
    assert cli.main(["compare", str(a)]) == 2
    assert cli.main(["compare", str(a), str(tmp_path / "missing")]) == 2
    assert "missing summary file" in capsys.readouterr().err

    c = write_summary(tmp_path / "c", [0.5, 0.5, 0.5])
    assert cli.main(["compare", str(a), str(c)]) == 3

    merged = tmp_path / "merged"
    merged.mkdir()
    (merged / "summary.json").write_text(json.dumps({"strategies": {}}))
    assert cli.main(["compare", str(a), str(merged)]) == 2
    assert "per-strategy subdirectories" in capsys.readouterr().err


def test_compare_refuses_a_summary_that_is_not_json(tmp_path, capsys):
    a = write_summary(tmp_path / "a", [0.5, 0.5])
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "summary.json").write_text('{"final_task_accuracies": [0.5,')
    assert cli.main(["compare", str(a), str(broken)]) == 2
    err = capsys.readouterr().err
    assert f"{broken / 'summary.json'}: not valid JSON" in err


@pytest.mark.parametrize("accs", [["0.5", "high"], [0.5, None], "0.5", [], [True, 0.5]],
                         ids=["strings", "null", "not-a-list", "empty", "bool"])
def test_compare_refuses_accuracies_that_are_not_numbers(tmp_path, capsys, accs):
    a = write_summary(tmp_path / "a", [0.5, 0.5])
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "summary.json").write_text(json.dumps({"final_task_accuracies": accs}))
    assert cli.main(["compare", str(a), str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad / 'summary.json'}: final_task_accuracies must be a non-empty list" in err
