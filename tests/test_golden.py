"""Golden digests: a behaviour-preserving refactor must leave every output
byte for byte as it was.

Each case runs criterion 9's tiny CLI config under one strategy and
architecture and compares the sha256 of its rounds.csv with a value
recorded before the refactor; the offline reference is compared through
the repr of its accuracies.  The checkpoint cases compare the sha256 of
model.bin and of every buffer snapshot, one strategy per payload type
(stats, embedding, raw), so the FVMC and FVBF formats are pinned byte for
byte too.  All cases together take about two seconds, so this is the quick
check to run before the acceptance battery.

OpenBLAS picks its GEMM kernel, and with it the float summation order, for
the CPU it loads on, so every value is recorded per kernel ("core"): under
SkylakeX, what an AVX-512 host selects, and under Haswell, what an AVX2 host
selects and what `OPENBLAS_CORETYPE=Haswell` forces on either.  The running
core is read from the library itself.  A core with no recorded value fails
with a message that names it; it is never skipped.

A change that is meant to alter results (a new summation order, a new
draw) re-records these values under both cores and says so in CHANGES.md.
"""

import ctypes
import hashlib

import pytest

from filver import cli
from filver.config import parse_pairs
from filver.federation import run_offline

from conftest import openblas_libraries
from test_acceptance import CLI_PAIRS

ROUNDS_SHA256 = {
    ("none", "mlp"): {
        "SkylakeX": "40bba50dc287424629646dd7f30542a234264ee94fa06339f78efd21a86bb702",
        "Haswell": "32f27c4636b926f8f26199766404492301ecba2042206c5ce99ca96be189a985",
    },
    ("noise", "mlp"): {
        "SkylakeX": "c3781dd0b9d450b799b0c7d84eda1d86576647a5d462b7c7294431431aa49913",
        "Haswell": "7253cf6e59723cf7de431e1d3ccb5bfcc2413abbd164375cf4fb278f1af4ea09",
    },
    ("naive", "mlp"): {
        "SkylakeX": "5d3c21312a51b2f546ff89246c2a6f17f34dd8225eabf17c43be8b5b951b8c35",
        "Haswell": "25d39a49c14af2c24297b16da6e0946ec0aa9f8793a98aa01029bd2f5f9b4bc7",
    },
    ("ebr", "mlp"): {
        "SkylakeX": "5d3c21312a51b2f546ff89246c2a6f17f34dd8225eabf17c43be8b5b951b8c35",
        "Haswell": "25d39a49c14af2c24297b16da6e0946ec0aa9f8793a98aa01029bd2f5f9b4bc7",
    },
    ("ver_stats", "mlp"): {
        "SkylakeX": "1e9c32411a308dbcf70eb21015bbd9d3a2ba5fc29c7cde6b52395060edb34486",
        "Haswell": "26164c64e3ea2ebafda2e02fd121c17f6022a3884574d6ebdacc3a764ea02316",
    },
    ("ver_sampled", "mlp"): {
        "SkylakeX": "fb2215ce3a1cb6333a2fdbf7e1e06a40b36c237aa2276c9f26116adafe36a7a0",
        "Haswell": "fb2215ce3a1cb6333a2fdbf7e1e06a40b36c237aa2276c9f26116adafe36a7a0",
    },
    ("ver_sampled", "conv"): {
        "SkylakeX": "e07eb6f118b0407257efa0a26cde1960c83945e3bd064b015976b5cb1b70a7f9",
        "Haswell": "3b154e8b2019600a3b35f32d5993d4f4b6f0d5b9ad89d6e5713a821b7152cc2b",
    },
    ("ebr", "conv"): {
        "SkylakeX": "37386503ccc646a085c84b8331fc9a573022e890f69a5faafef941b283d284d6",
        "Haswell": "dea3df88276197b4ca5a7a18275131e096c41cbdee5cbd1749054e9315a5eb80",
    },
}

OFFLINE_ACCURACIES = {
    "ver_sampled": {"SkylakeX": "((0.6, 0.4), 0.5)", "Haswell": "((0.6, 0.4), 0.5)"},
    "ebr": {"SkylakeX": "((0.5, 0.2), 0.35)", "Haswell": "((0.5, 0.2), 0.35)"},
}

CHECKPOINT_SHA256 = {
    "ver_stats": {
        "SkylakeX": {
            "model.bin": "4bc20fecd99112d7708e583bd3835bfad4996ea074792c6b5540be73f8da0d5e",
            "server_buffer.bin": "b53fa1f36aac91118de81ca6956c166e67022105c733e8531d51563aefb91b15",
            "client_0.bin": "37c7ebf1577f5aa102e0171a18fef6a5f7ca4d44e5ec79e397f4b5a48c102869",
            "client_1.bin": "8d21d38997813f5b2d8010db6d3e1c2b0cb80b3eeeaa00da68ac86f5387c99d9",
        },
        "Haswell": {
            "model.bin": "5d2188f324b08d7126136397c2f440c43f3aecdc40f515ce56b009409e7526bd",
            "server_buffer.bin": "b0964a16e0566fb7bfb8b70e67a6f39986d36c2af138441f101775ec696019c0",
            "client_0.bin": "946e4b9d947827c74c9f68aef39e2a1c3073618403fe9a85dfe322691124ac29",
            "client_1.bin": "fe7edc69f8e2404bbcd434322f543b53666caf7fd5fb2202f882bdbcf96dc978",
        },
    },
    "ver_sampled": {
        "SkylakeX": {
            "model.bin": "95c980e31932ae0f47f0e72e7d99430a7901c84345ed33b5514f29f5dabfbc93",
            "server_buffer.bin": "17d69291426c38abb174012a454990c0d2106a5127e10863219cbea28556bfc6",
            "client_0.bin": "23a8208282e9e8e2834464fa6bde38e925a2001aa21a3210d1430dbf80dbc2d6",
            "client_1.bin": "6a7586c58b3c06634bea56534b168830ca2644821eec05721d2824ed7ad5315d",
        },
        "Haswell": {
            "model.bin": "def90d32b6e7de5b3573a1304f80caf44c14b168cf641ff064abbf93b2e5364e",
            "server_buffer.bin": "ce243c3dd1bc8a6367e00623833fc287f643f0afd7e11f6f39113dced0f21c2f",
            "client_0.bin": "cadb10de3ca3d26dcdcbad9df78afd7211f2893c9f740f24e5b34cda25f179bf",
            "client_1.bin": "aab82a17a31045bcbfdffac832dda9fddc49f832528fb7d8e13043534fad4ad5",
        },
    },
    "naive": {
        "SkylakeX": {
            "model.bin": "3e27b96c5e7aed337af7ff7a8b8c88f05f4358c9d0eff80c64eebae7bb456783",
            "server_buffer.bin": "a991ca306a66918b4a26f608d18c588a02ac672aa1963aad8d685d72d6f4a957",
            "client_0.bin": "a511869c076a9491a127004721c3162f9fee304a072e7ad65cbbe6b1f1987228",
            "client_1.bin": "601a296a102b6bfa0f5cbeedfb771699ddb8049df2d049cdae6f6ce62d1a0f84",
        },
        "Haswell": {
            "model.bin": "b87ef80c99112f1002e3b365f9e158b7d6488948acb4f09779eb22a937781c9b",
            "server_buffer.bin": "a991ca306a66918b4a26f608d18c588a02ac672aa1963aad8d685d72d6f4a957",
            "client_0.bin": "a511869c076a9491a127004721c3162f9fee304a072e7ad65cbbe6b1f1987228",
            "client_1.bin": "601a296a102b6bfa0f5cbeedfb771699ddb8049df2d049cdae6f6ce62d1a0f84",
        },
    },
}


def blas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS chose at load time."""
    libs = openblas_libraries()
    if len(libs) != 1:
        return f"unknown (found {len(libs)} bundled scipy-openblas libraries)"
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode("ascii")


def recorded(by_core: dict):
    """(core, value recorded under it); fails naming the core if it has none."""
    core = blas_core()
    if core not in by_core:
        pytest.fail(f"no golden value recorded for OpenBLAS core {core!r} "
                    f"(recorded: {', '.join(by_core)})")
    return core, by_core[core]


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
    core, want = recorded(ROUNDS_SHA256[(strategy, arch)])
    assert rounds_digest(tmp_path, strategy, arch) == want, f"OpenBLAS core {core}"


@pytest.mark.parametrize("strategy", list(OFFLINE_ACCURACIES))
def test_offline_accuracies_match_golden(strategy):
    core, want = recorded(OFFLINE_ACCURACIES[strategy])
    assert offline_repr(strategy) == want, f"OpenBLAS core {core}"


@pytest.mark.parametrize("strategy", list(CHECKPOINT_SHA256))
def test_checkpoint_buffers_match_golden_digests(tmp_path, strategy):
    core, want = recorded(CHECKPOINT_SHA256[strategy])
    checkpoint = _run(tmp_path, strategy, "mlp", "--checkpoint-every", "3") / "checkpoint"
    got = {name: _sha256(checkpoint / name) for name in want}
    assert got == want, f"OpenBLAS core {core}"
    assert sorted(p.name for p in checkpoint.glob("*.bin")) == sorted(want)
