"""Golden digests: a behaviour-preserving refactor must leave every output
byte for byte as it was.

Each case runs criterion 9's tiny CLI config under one strategy and
architecture and compares the sha256 of its rounds.csv with a value
recorded before the refactor; the offline reference is compared through
the repr of its accuracies.  The checkpoint cases compare the sha256 of
every buffer snapshot, one strategy per payload type (stats, embedding,
raw), so the FVBF snapshot format is pinned byte for byte too.  All cases
together take about two seconds, so this is the quick check to run before
the acceptance battery.

A change that is meant to alter results (a new summation order, a new
draw) re-records these values and says so in CHANGES.md.
"""

import hashlib

import pytest

from filver import cli
from filver.config import parse_pairs
from filver.federation import run_offline

from test_acceptance import CLI_PAIRS

ROUNDS_SHA256 = {
    ("none", "mlp"):
        "40bba50dc287424629646dd7f30542a234264ee94fa06339f78efd21a86bb702",
    ("noise", "mlp"):
        "c3781dd0b9d450b799b0c7d84eda1d86576647a5d462b7c7294431431aa49913",
    ("naive", "mlp"):
        "5d3c21312a51b2f546ff89246c2a6f17f34dd8225eabf17c43be8b5b951b8c35",
    ("ebr", "mlp"):
        "5d3c21312a51b2f546ff89246c2a6f17f34dd8225eabf17c43be8b5b951b8c35",
    ("ver_stats", "mlp"):
        "1e9c32411a308dbcf70eb21015bbd9d3a2ba5fc29c7cde6b52395060edb34486",
    ("ver_sampled", "mlp"):
        "fb2215ce3a1cb6333a2fdbf7e1e06a40b36c237aa2276c9f26116adafe36a7a0",
    ("ver_sampled", "conv"):
        "e07eb6f118b0407257efa0a26cde1960c83945e3bd064b015976b5cb1b70a7f9",
    ("ebr", "conv"):
        "37386503ccc646a085c84b8331fc9a573022e890f69a5faafef941b283d284d6",
}

OFFLINE_ACCURACIES = {
    "ver_sampled": "((0.6, 0.4), 0.5)",
    "ebr": "((0.5, 0.2), 0.35)",
}


CHECKPOINT_SHA256 = {
    "ver_stats": {
        "server_buffer.bin": "b53fa1f36aac91118de81ca6956c166e67022105c733e8531d51563aefb91b15",
        "client_0.bin": "37c7ebf1577f5aa102e0171a18fef6a5f7ca4d44e5ec79e397f4b5a48c102869",
        "client_1.bin": "8d21d38997813f5b2d8010db6d3e1c2b0cb80b3eeeaa00da68ac86f5387c99d9",
    },
    "ver_sampled": {
        "server_buffer.bin": "17d69291426c38abb174012a454990c0d2106a5127e10863219cbea28556bfc6",
        "client_0.bin": "23a8208282e9e8e2834464fa6bde38e925a2001aa21a3210d1430dbf80dbc2d6",
        "client_1.bin": "6a7586c58b3c06634bea56534b168830ca2644821eec05721d2824ed7ad5315d",
    },
    "naive": {
        "server_buffer.bin": "a991ca306a66918b4a26f608d18c588a02ac672aa1963aad8d685d72d6f4a957",
        "client_0.bin": "a511869c076a9491a127004721c3162f9fee304a072e7ad65cbbe6b1f1987228",
        "client_1.bin": "601a296a102b6bfa0f5cbeedfb771699ddb8049df2d049cdae6f6ce62d1a0f84",
    },
}


def _pairs(strategy, arch):
    pairs = dict(CLI_PAIRS, **{"strategy.kind": strategy, "model.arch": arch})
    if arch == "conv":
        pairs["dataset.image_size"] = "16"
    return pairs


def _run(tmp_path, strategy, arch, *flags):
    out = tmp_path / f"{strategy}-{arch}"
    cfg = tmp_path / f"{strategy}-{arch}.cfg"
    pairs = dict(_pairs(strategy, arch), out=str(out))
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    assert cli.main(["run", str(cfg), "--quiet", *flags]) == 0
    return out


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rounds_digest(tmp_path, strategy, arch) -> str:
    return _sha256(_run(tmp_path, strategy, arch) / "rounds.csv")


def offline_repr(strategy) -> str:
    cfg = parse_pairs(_pairs(strategy, "mlp"))
    tasks = cfg.build_tasks()
    accs, mean = run_offline(tasks, cfg.fl_config(), master_seed=cfg.master_seed(),
                             encoder_spec=cfg.encoder_spec(tasks),
                             classifier_spec=cfg.classifier_spec(tasks),
                             beta=cfg["model.beta"],
                             pretrain_epochs=cfg["model.pretrain_epochs"],
                             pretrain_lr=cfg["model.pretrain_lr"])
    return repr((accs, mean))


@pytest.mark.parametrize("strategy,arch", list(ROUNDS_SHA256))
def test_rounds_csv_matches_golden_digest(tmp_path, strategy, arch):
    assert rounds_digest(tmp_path, strategy, arch) == ROUNDS_SHA256[(strategy, arch)]


@pytest.mark.parametrize("strategy", list(OFFLINE_ACCURACIES))
def test_offline_accuracies_match_golden(strategy):
    assert offline_repr(strategy) == OFFLINE_ACCURACIES[strategy]


@pytest.mark.parametrize("strategy", list(CHECKPOINT_SHA256))
def test_checkpoint_buffers_match_golden_digests(tmp_path, strategy):
    checkpoint = _run(tmp_path, strategy, "mlp", "--checkpoint-every", "3") / "checkpoint"
    got = {name: _sha256(checkpoint / name) for name in CHECKPOINT_SHA256[strategy]}
    assert got == CHECKPOINT_SHA256[strategy]
    assert sorted(p.name for p in checkpoint.glob("*.bin")) == sorted(
        ["model.bin", *CHECKPOINT_SHA256[strategy]])
