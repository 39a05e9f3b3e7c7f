"""Golden digests: a behaviour-preserving refactor must leave every output
byte for byte as it was.

Each case runs criterion 9's tiny CLI config under one strategy and
architecture and compares the sha256 of its rounds.csv with a value
recorded before the refactor; the offline reference is compared through
the repr of its accuracies.  The checkpoint cases compare the sha256 of
model.bin and of every buffer snapshot under ver_stats (stats payloads),
ver_sampled (sampled embeddings) and naive (raw uploads, carried and
buffered as the embed stage's rows of them: buffers and snapshots hold no
raw samples), so the FVMC and FVBF formats are pinned byte for byte too,
and their meta.json, so a checkpoint written before a change to the run
identity still resumes after it.  The batch-size-1 cases pin local steps
whose replay half is 0 rows.  The matrix cases pin rounds.csv over every
strategy x scenario x memory combination, and a property over the same
space checks that a run stopped after any round and resumed writes the
uninterrupted run's bytes.  A row embeds to the same bytes in any encoder
pass, so naive and ebr share one digest per schedule at x1 (naive x16
prices a row as its raw sample, so it holds what x1 holds).  All cases
together take a few seconds, so this is the quick check to run before the
acceptance battery.

OpenBLAS picks its GEMM kernel, and with it the float summation order, for
the CPU it loads on, so every value is recorded per kernel ("core"): under
SkylakeX, what an AVX-512 host selects, and under Haswell, what an AVX2 host
selects and what `OPENBLAS_CORETYPE=Haswell` forces on either.  The running
core is read from the library itself.  A core with no recorded value fails
with a message that names it; it is never skipped.

Every case runs with BLAS on one thread: the thread count also changes the
bytes (a padded 64-row conv encoder pass is split between threads on two
of them), and one thread is what every value here was recorded under,
whatever the host's core count.

A change that is meant to alter results (a new summation order, a new
draw) re-records these values under both cores and says so in CHANGES.md.
"""

import hashlib
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filver import cli
from filver.config import blas_core, parse_pairs
from filver.federation import run_offline
from filver.rehearsal import MEMORY_MULTIPLIERS, STRATEGY_KINDS
from filver.scenarios import SCHEDULE_KINDS

from test_acceptance import CLI_PAIRS

pytestmark = pytest.mark.usefixtures("one_blas_thread_for_module")

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
        "SkylakeX": "8adfb106aab6e2618c8b8c2fa7eb2027c9a4e8f20b629d908f5de64f80ed8d2a",
        "Haswell": "3b154e8b2019600a3b35f32d5993d4f4b6f0d5b9ad89d6e5713a821b7152cc2b",
    },
    ("ebr", "conv"): {
        "SkylakeX": "6e86ddc5d327668ba53cf2a33e60fd79cf56000dbe5bd4e8796d5810f6ddcb16",
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
            "meta.json": "9e258c8e07836783e2a4c46a56c03928af6e02e28f4295e0e0ed6c2b556b3890",
        },
        "Haswell": {
            "model.bin": "5d2188f324b08d7126136397c2f440c43f3aecdc40f515ce56b009409e7526bd",
            "server_buffer.bin": "b0964a16e0566fb7bfb8b70e67a6f39986d36c2af138441f101775ec696019c0",
            "client_0.bin": "946e4b9d947827c74c9f68aef39e2a1c3073618403fe9a85dfe322691124ac29",
            "client_1.bin": "fe7edc69f8e2404bbcd434322f543b53666caf7fd5fb2202f882bdbcf96dc978",
            "meta.json": "9e258c8e07836783e2a4c46a56c03928af6e02e28f4295e0e0ed6c2b556b3890",
        },
    },
    "ver_sampled": {
        "SkylakeX": {
            "model.bin": "95c980e31932ae0f47f0e72e7d99430a7901c84345ed33b5514f29f5dabfbc93",
            "server_buffer.bin": "17d69291426c38abb174012a454990c0d2106a5127e10863219cbea28556bfc6",
            "client_0.bin": "23a8208282e9e8e2834464fa6bde38e925a2001aa21a3210d1430dbf80dbc2d6",
            "client_1.bin": "6a7586c58b3c06634bea56534b168830ca2644821eec05721d2824ed7ad5315d",
            "meta.json": "3fa9062c7df03376fadfbeea6e08e0ef1adf26aa45a7f8f8860a0d625d0c2b8f",
        },
        "Haswell": {
            "model.bin": "def90d32b6e7de5b3573a1304f80caf44c14b168cf641ff064abbf93b2e5364e",
            "server_buffer.bin": "ce243c3dd1bc8a6367e00623833fc287f643f0afd7e11f6f39113dced0f21c2f",
            "client_0.bin": "cadb10de3ca3d26dcdcbad9df78afd7211f2893c9f740f24e5b34cda25f179bf",
            "client_1.bin": "aab82a17a31045bcbfdffac832dda9fddc49f832528fb7d8e13043534fad4ad5",
            "meta.json": "3fa9062c7df03376fadfbeea6e08e0ef1adf26aa45a7f8f8860a0d625d0c2b8f",
        },
    },
    "naive": {
        "SkylakeX": {
            "model.bin": "3e27b96c5e7aed337af7ff7a8b8c88f05f4358c9d0eff80c64eebae7bb456783",
            "server_buffer.bin": "c1335e30f4643f3cf4c7145195452e64e1030e530870fa6343121fd1d93d07d7",
            "client_0.bin": "6c8970129b2ed46283cf24ced81cb18b37441a834be567ae05788391c32a3d13",
            "client_1.bin": "d38300a6d98789c24881a5c5f7057fb09f9a7482ffc10ea979276764796132b3",
            "meta.json": "41b1f59e3e2d2e2cd5f19da01e4f9cdc3d052dc760855dcc283d02e35d63bfb2",
        },
        "Haswell": {
            "model.bin": "b87ef80c99112f1002e3b365f9e158b7d6488948acb4f09779eb22a937781c9b",
            "server_buffer.bin": "31b7d4b55191b7d3e51fa363388dbfa53105138bd9ac77cc11e7757a8b683de6",
            "client_0.bin": "91c5897e65f4fbef875e8f65fd93daaf7c80c0d4c382e54ed9fa10b7fa382200",
            "client_1.bin": "16d2ea5e3f941d1c0a279ec21fdc83ea792c377c2ae1d6fa8fdfcf4db454181d",
            "meta.json": "41b1f59e3e2d2e2cd5f19da01e4f9cdc3d052dc760855dcc283d02e35d63bfb2",
        },
    },
}

# fl.batch_size = 1: every local step after a client's first upload replays
# 0 rows next to its 1 fresh row, and SST draws 1 row a step
BATCH_ONE_SHA256 = {
    "ver_sampled": {
        "SkylakeX": "539d24b361bd564e2ef38d23be7fbc25b2cb16a888ce5e0711da7a7527355d98",
        "Haswell": "92f64e408c54daaa4afeb719333ab784e37daf58e379ffd2f95789b62b376527",
    },
    "ver_stats": {
        "SkylakeX": "22d27533ea3e3c90ca363a38a055d7c48b1930be86462b0c102c05046782a672",
        "Haswell": "b42ade1573513ce4fb974d1f061590e492bae0caae30e0ccd99a9b02f7fdb0c1",
    },
}


# The config space: every strategy under every enrollment scenario and memory
# multiplier ("none" once: it keeps no buffer), on criterion 9's tiny config
# widened to 3 clients sampled 2 per round over 3 tasks of 2 classes each, so
# client sampling, eviction and all four schedules do real work.
MATRIX_PAIRS = dict(CLI_PAIRS, **{"dataset.classes": "6", "protocol.tasks": "3",
                                  "fl.n_clients": "3", "fl.clients_per_round": "2"})

MATRIX_SHA256 = {
    ("none", "fully_enrolled", "x1"): {
        "SkylakeX": "f580b958e014ef6405f9b9643a52f094f19ac7d07339333df8e8c96b25ea26a4",
        "Haswell": "7bd636287f9b6bf1dffed63c83d2a3a1bd21c6d2dfbd9957d3509116feca1917",
    },
    ("noise", "fully_enrolled", "x1"): {
        "SkylakeX": "9b7bc73f6ec99472e404967d32e18ed406683d1f52a2322e964a7d788d71fa61",
        "Haswell": "b919837b09108e166045014520075c1008d6b44ada4b44af4fbcc7324af71626",
    },
    ("noise", "fully_enrolled", "x16"): {
        "SkylakeX": "f59f496f0b14303e3586fcaecd7c334af6ff958c300afcb65100be55713da9cb",
        "Haswell": "f59f496f0b14303e3586fcaecd7c334af6ff958c300afcb65100be55713da9cb",
    },
    ("noise", "decreasing", "x1"): {
        "SkylakeX": "bc7347b3b9a09cefe3071a306dde108297533c52bc88e33ffe4f8ed723f5db30",
        "Haswell": "bc7347b3b9a09cefe3071a306dde108297533c52bc88e33ffe4f8ed723f5db30",
    },
    ("noise", "decreasing", "x16"): {
        "SkylakeX": "7bb96d83bfdd0675cd2fddf9d6e5a0385864bac2d75b26c932aa8d5bc2a5d44f",
        "Haswell": "7bb96d83bfdd0675cd2fddf9d6e5a0385864bac2d75b26c932aa8d5bc2a5d44f",
    },
    ("noise", "increasing", "x1"): {
        "SkylakeX": "2201bd4c69e4c3c82c9ebe332987aa48fbbb64403b7a106a972f896d1d9d7b8b",
        "Haswell": "860bffb1ebddb351a1de96d1ab569aae0629511e70d77769a6395478e5c8c5f4",
    },
    ("noise", "increasing", "x16"): {
        "SkylakeX": "bd4f81dd6ccfc92481a660e47540a289ae38727ab2138f6837b16c63a3e97ba5",
        "Haswell": "cbf48013291f965ce51246d61b8b695b00e07849aa0d811937cdd48125e4eaf6",
    },
    ("noise", "scattered", "x1"): {
        "SkylakeX": "8e2e5def71778121710f47758b6866f357ae4851f38d130891538b2ad2d78898",
        "Haswell": "82faa8864315cf1a87baf58213e6c3ccc9ebbe41ebd3c3b3d2fb8edad01d4cd3",
    },
    ("noise", "scattered", "x16"): {
        "SkylakeX": "8e2e5def71778121710f47758b6866f357ae4851f38d130891538b2ad2d78898",
        "Haswell": "82faa8864315cf1a87baf58213e6c3ccc9ebbe41ebd3c3b3d2fb8edad01d4cd3",
    },
    ("naive", "fully_enrolled", "x1"): {
        "SkylakeX": "9d7cc09720b10331ab79474fd83af57e209b3ade48fc878c9f2f47c0f818fda0",
        "Haswell": "9d7cc09720b10331ab79474fd83af57e209b3ade48fc878c9f2f47c0f818fda0",
    },
    ("naive", "fully_enrolled", "x16"): {
        "SkylakeX": "9d7cc09720b10331ab79474fd83af57e209b3ade48fc878c9f2f47c0f818fda0",
        "Haswell": "9d7cc09720b10331ab79474fd83af57e209b3ade48fc878c9f2f47c0f818fda0",
    },
    ("naive", "decreasing", "x1"): {
        "SkylakeX": "1b8f368b9267dac115ef72565c74a35e32d8087a22945c6c8af61fcba0efee91",
        "Haswell": "03b97a75c129ab077604c6b99da66c55e14097b3177060f14c1a799b58cb55fb",
    },
    ("naive", "decreasing", "x16"): {
        "SkylakeX": "1b8f368b9267dac115ef72565c74a35e32d8087a22945c6c8af61fcba0efee91",
        "Haswell": "03b97a75c129ab077604c6b99da66c55e14097b3177060f14c1a799b58cb55fb",
    },
    ("naive", "increasing", "x1"): {
        "SkylakeX": "ec7a684358d550055460853369b237301012254c519f33983aa1f3528be774ac",
        "Haswell": "4626d0658e4c9db088e816b0bb7eaf18e628869b7b0647245a67d78006b22c3a",
    },
    ("naive", "increasing", "x16"): {
        "SkylakeX": "ec7a684358d550055460853369b237301012254c519f33983aa1f3528be774ac",
        "Haswell": "4626d0658e4c9db088e816b0bb7eaf18e628869b7b0647245a67d78006b22c3a",
    },
    ("naive", "scattered", "x1"): {
        "SkylakeX": "f406f98a203e673dabc1881196b81095838c3b3ceab4ad61a792cd123a29a491",
        "Haswell": "3e698a6e1e74c973003b5b05451c46411ede1e011f320ba5b0827727fbbb0b2b",
    },
    ("naive", "scattered", "x16"): {
        "SkylakeX": "f406f98a203e673dabc1881196b81095838c3b3ceab4ad61a792cd123a29a491",
        "Haswell": "3e698a6e1e74c973003b5b05451c46411ede1e011f320ba5b0827727fbbb0b2b",
    },
    ("ebr", "fully_enrolled", "x1"): {
        "SkylakeX": "9d7cc09720b10331ab79474fd83af57e209b3ade48fc878c9f2f47c0f818fda0",
        "Haswell": "9d7cc09720b10331ab79474fd83af57e209b3ade48fc878c9f2f47c0f818fda0",
    },
    ("ebr", "fully_enrolled", "x16"): {
        "SkylakeX": "eb84fcaf68c3bb11bab94843c86c35c13e8abb045f161f0ce6916a7734a6f040",
        "Haswell": "eb84fcaf68c3bb11bab94843c86c35c13e8abb045f161f0ce6916a7734a6f040",
    },
    ("ebr", "decreasing", "x1"): {
        "SkylakeX": "1b8f368b9267dac115ef72565c74a35e32d8087a22945c6c8af61fcba0efee91",
        "Haswell": "03b97a75c129ab077604c6b99da66c55e14097b3177060f14c1a799b58cb55fb",
    },
    ("ebr", "decreasing", "x16"): {
        "SkylakeX": "c11eb3b520836d188e25f62bace0e63965b65ad2aa995a6456879fb714a68464",
        "Haswell": "2f91c36de7d8edcff313b30d7db23677bee64e1c04d55c20b58df2f56bf54f86",
    },
    ("ebr", "increasing", "x1"): {
        "SkylakeX": "ec7a684358d550055460853369b237301012254c519f33983aa1f3528be774ac",
        "Haswell": "4626d0658e4c9db088e816b0bb7eaf18e628869b7b0647245a67d78006b22c3a",
    },
    ("ebr", "increasing", "x16"): {
        "SkylakeX": "b641d6786971f5fefb386ceeec91da219c8da07d1b87f61a39c6d5b0d6d3f209",
        "Haswell": "8d110f6e1ac70793853375ed36aa16545aefa42ad4439f64eb1f336722cfccc3",
    },
    ("ebr", "scattered", "x1"): {
        "SkylakeX": "f406f98a203e673dabc1881196b81095838c3b3ceab4ad61a792cd123a29a491",
        "Haswell": "3e698a6e1e74c973003b5b05451c46411ede1e011f320ba5b0827727fbbb0b2b",
    },
    ("ebr", "scattered", "x16"): {
        "SkylakeX": "f406f98a203e673dabc1881196b81095838c3b3ceab4ad61a792cd123a29a491",
        "Haswell": "3e698a6e1e74c973003b5b05451c46411ede1e011f320ba5b0827727fbbb0b2b",
    },
    ("ver_stats", "fully_enrolled", "x1"): {
        "SkylakeX": "a3487da449232a6fc4f4fb13ecdae04e735128cafe8784bd1d3a2e8914459a7c",
        "Haswell": "343d8e0694b168674411024c63d06a4b11b690b4f4572da051e08ee448317da4",
    },
    ("ver_stats", "fully_enrolled", "x16"): {
        "SkylakeX": "69beedbc52144ee493956d3786dbce940c079464c80cf702f6eac43c1e0a342e",
        "Haswell": "3871d96c17de3ec337cb86b588a3adb05a5dc67b5fc1a1ff32c45bbe80a780c9",
    },
    ("ver_stats", "decreasing", "x1"): {
        "SkylakeX": "09ffe2114fd6e8dbbf168bdedd88772c64096f92b84dd8e2980d4d51c56d7d9d",
        "Haswell": "d4e00426751c34c62711d94de729a09ed2c7e6d94134a3b8816984d3eed83b55",
    },
    ("ver_stats", "decreasing", "x16"): {
        "SkylakeX": "63e0fd873bcbec76a5cdb5fa2fcb03da0ab5b56e007493daea4dc0590d9068a7",
        "Haswell": "bf7864678ad7a25c85e9d4035b9e5d22062a9b3cddf71eea4b675299aaf9293c",
    },
    ("ver_stats", "increasing", "x1"): {
        "SkylakeX": "53935d54aec1990bec0ce0e5aee7bfed4e3e37d2b530d5b11f1d2b00d628dd13",
        "Haswell": "f31ea1a8ff341446932876177117f616b038e11d735a07c50c5d791a9d0e9bbc",
    },
    ("ver_stats", "increasing", "x16"): {
        "SkylakeX": "d2568927a763693007dc3f7dc3838b5f15df065543350fd5ab85b9163d0cda59",
        "Haswell": "205fbea409d1594b780782c5bee7633d24774c87d76529f249de67313dfb4b70",
    },
    ("ver_stats", "scattered", "x1"): {
        "SkylakeX": "fd1162141284f7036a2c1275e74f2f217d877a015c09a964d21dce4499280ff2",
        "Haswell": "f51a67b30815b243da4e28069994f026d0c23fd4f2c1f3786b6b284fb82a1272",
    },
    ("ver_stats", "scattered", "x16"): {
        "SkylakeX": "fd1162141284f7036a2c1275e74f2f217d877a015c09a964d21dce4499280ff2",
        "Haswell": "f51a67b30815b243da4e28069994f026d0c23fd4f2c1f3786b6b284fb82a1272",
    },
    ("ver_sampled", "fully_enrolled", "x1"): {
        "SkylakeX": "59e75ed9b073b80e3d77070c8bbab9e4515a5e7e9af6f05d15a067df1b9673e4",
        "Haswell": "93a3fb4471c000348bda6027c1658bc9dc91ef35164da4bc8e2a181395b96961",
    },
    ("ver_sampled", "fully_enrolled", "x16"): {
        "SkylakeX": "7239b4dbcc7cca3ee3a66db327628a87bae891696f447ae1192e3205f4e2dca8",
        "Haswell": "f7c6f54df5f8ae51f0dfba58d713d72cd6a7222ff6c8637dc153a59ed295b0d4",
    },
    ("ver_sampled", "decreasing", "x1"): {
        "SkylakeX": "d23c7a3c1a6e4c7f3bca3fc0fb167cf02421bedd4645a2bafa5c71c05a971348",
        "Haswell": "70a06eef2cbbb3600a0bee721cdc956ee84e422e53d4847106509d92e3c82668",
    },
    ("ver_sampled", "decreasing", "x16"): {
        "SkylakeX": "a576e5dc237bb1485119c4c0b9cbfae5e140822089b9aa61d6c41895e6f65a0d",
        "Haswell": "28d77ae77fb88ba83765606af98a455321510e4a63e385dbc0c85a643271c2d7",
    },
    ("ver_sampled", "increasing", "x1"): {
        "SkylakeX": "ab45761f491b666574308f806836e6e9b04974d42b3c71b845f849df2a7c18a8",
        "Haswell": "88dacd7671e98ade1d0a8c15d8cb2bf4a7c217b69d38e34c659dfee36fee91e8",
    },
    ("ver_sampled", "increasing", "x16"): {
        "SkylakeX": "f44a36dcf2a1b49975b25c75ad3fe373277868eeeffa3763b8ad9dd098bc0dc0",
        "Haswell": "16158727bd726ae527f5d697140f79576ffa0b78dec27c8b2f4ce0e5be173aa6",
    },
    ("ver_sampled", "scattered", "x1"): {
        "SkylakeX": "67d5f2619043f956ca4bd35be448cea24153a2891a91e7634a103295bfdbb377",
        "Haswell": "67d5f2619043f956ca4bd35be448cea24153a2891a91e7634a103295bfdbb377",
    },
    ("ver_sampled", "scattered", "x16"): {
        "SkylakeX": "67d5f2619043f956ca4bd35be448cea24153a2891a91e7634a103295bfdbb377",
        "Haswell": "67d5f2619043f956ca4bd35be448cea24153a2891a91e7634a103295bfdbb377",
    },
}


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


def _run_pairs(tmp_path, name, pairs, *flags):
    out = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    pairs = dict(pairs, out=str(out))
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    assert cli.main(["run", str(cfg), "--quiet", *flags]) == 0
    return out


def _run(tmp_path, strategy, arch, *flags):
    return _run_pairs(tmp_path, f"{strategy}-{arch}", _pairs(strategy, arch), *flags)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rounds_digest(tmp_path, strategy, arch) -> str:
    return _sha256(_run(tmp_path, strategy, arch) / "rounds.csv")


def offline_repr(strategy) -> str:
    cfg = parse_pairs(_pairs(strategy, "mlp"))
    tasks = cfg.build_tasks()
    accs, mean = run_offline(tasks, cfg.fl_config(), cfg.model_config(tasks),
                             master_seed=cfg.master_seed())
    return repr((accs, mean))


@pytest.mark.parametrize("strategy,arch", list(ROUNDS_SHA256))
def test_rounds_csv_matches_golden_digest(tmp_path, strategy, arch):
    core, want = recorded(ROUNDS_SHA256[(strategy, arch)])
    assert rounds_digest(tmp_path, strategy, arch) == want, f"OpenBLAS core {core}"


@pytest.mark.parametrize("strategy", list(BATCH_ONE_SHA256))
def test_batch_size_one_rounds_csv_matches_golden_digest(tmp_path, strategy):
    core, want = recorded(BATCH_ONE_SHA256[strategy])
    pairs = dict(_pairs(strategy, "mlp"), **{"fl.batch_size": "1"})
    out = _run_pairs(tmp_path, "batch-one", pairs)
    assert _sha256(out / "rounds.csv") == want, f"OpenBLAS core {core}"


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
    assert sorted(p.name for p in checkpoint.iterdir()) == sorted(want)


@pytest.mark.parametrize("strategy,scenario,memory", list(MATRIX_SHA256))
def test_matrix_rounds_csv_matches_golden_digest(tmp_path, strategy, scenario, memory):
    core, want = recorded(MATRIX_SHA256[(strategy, scenario, memory)])
    pairs = dict(MATRIX_PAIRS, **{"strategy.kind": strategy, "scenario": scenario,
                                  "strategy.memory": memory})
    out = _run_pairs(tmp_path, "matrix", pairs)
    assert _sha256(out / "rounds.csv") == want, f"OpenBLAS core {core}"


@pytest.fixture(scope="module")
def uninterrupted():
    """(strategy, scenario, memory) -> the uninterrupted run's outputs,
    shared by every stop round drawn for that case."""
    return {}


def _outputs(out) -> dict:
    """rounds.csv and every final checkpoint file, by name, as bytes."""
    files = {"rounds.csv": (out / "rounds.csv").read_bytes()}
    files.update({f"checkpoint/{p.name}": p.read_bytes()
                  for p in sorted((out / "checkpoint").iterdir())})
    return files


@settings(max_examples=12, deadline=None)
@given(strategy=st.sampled_from(STRATEGY_KINDS), scenario=st.sampled_from(SCHEDULE_KINDS),
       memory=st.sampled_from(MEMORY_MULTIPLIERS), stop=st.integers(1, 8))
@example(strategy="ver_stats", scenario="decreasing", memory="x16", stop=3)  # task boundary
@example(strategy="naive", scenario="scattered", memory="x1", stop=6)  # task boundary
@example(strategy="ver_sampled", scenario="increasing", memory="x16", stop=4)  # a task's round 1
def test_resume_after_any_round_reproduces_the_uninterrupted_run(uninterrupted, strategy,
                                                                scenario, memory, stop):
    # the matrix config runs 3 tasks of 3 rounds; both sides checkpoint every round
    pairs = dict(MATRIX_PAIRS, **{"strategy.kind": strategy, "scenario": scenario,
                                  "strategy.memory": memory})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        case = (strategy, scenario, memory)
        if case not in uninterrupted:
            full = _run_pairs(tmp, "full", pairs, "--checkpoint-every", "1")
            uninterrupted[case] = _outputs(full)
        out = _run_pairs(tmp, "split", pairs, "--checkpoint-every", "1",
                         "--stop-after-round", str(stop))
        _run_pairs(tmp, "split", pairs, "--checkpoint-every", "1",
                   "--resume", str(out / "checkpoint"))
        assert _outputs(out) == uninterrupted[case]
