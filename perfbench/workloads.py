"""The benchmark's workloads: which `filver` CLI invocations each one runs,
what each invocation must leave behind, and the recorded output digests.

Every workload is a closed loop: one invocation at a time, one process, the
CLI default `--threads 1`.  The master seed is the benchmark's `--seed`.
Why each workload was chosen is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    # filver CLI arguments; {out}, {seed} and {cfg} are filled in per run
    argv: tuple
    # output file (relative to {out}) -> data rows it must hold afterwards
    rows: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    # preset to derive a config file from, with these keys overridden; None
    # when the invocations name a preset directly
    base_preset: str | None = None
    overrides: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk-split4",
            (Invocation(("run", "--preset", "desk-split4", "--out", "{out}", "--seed", "{seed}",
                         "--quiet"),
                        (("rounds.csv", 200),)),),
        ),
        Workload(
            "permuted10-ebr-vs-naive",
            (Invocation(("run", "--preset", "permuted10-ebr-vs-naive", "--out", "{out}",
                         "--seed", "{seed}", "--quiet"),
                        (("ebr/rounds.csv", 100), ("naive/rounds.csv", 100))),),
        ),
        Workload(
            "scattered-stats-x16-resume",
            (Invocation(("run", "{cfg}", "--out", "{out}", "--seed", "{seed}",
                         "--checkpoint-every", "10", "--stop-after-round", "100", "--quiet"),
                        (("rounds.csv", 100),)),
             Invocation(("run", "{cfg}", "--out", "{out}", "--seed", "{seed}",
                         "--checkpoint-every", "10", "--resume", "{out}/checkpoint", "--quiet"),
                        (("rounds.csv", 200),))),
            base_preset="scenario4-split4",
            overrides=(("strategy.kind", "ver_stats"), ("strategy.memory", "x16")),
        ),
    )
}

# sha256 of each output file after the last invocation, by (workload, seed),
# recorded at the commit that defined the benchmark.
# A mismatch is reported by name; it does not fail the run, because an
# output change can be intended (it then needs a reason and new goldens).
GOLDENS = {
    ("desk-split4", 1): {
        "rounds.csv": "7c19188150c4efc950f4aab64ceee63b7bdaad06b4724ee8542f55c00b847529"},
    ("desk-split4", 2): {
        "rounds.csv": "f9462e077f478553cb30e2a2289e45b380cecf36e2d2c69aabd90e331e8c054c"},
    ("desk-split4", 3): {
        "rounds.csv": "54e02e1684d232fd01b91bc096d7d3e012f3fc277a876bdbd46a431c1afcd620"},
    ("desk-split4", 4): {
        "rounds.csv": "bc44810bc14c0707a421d518538cf3035da5e1460b3a2416c984e6cb3f286acd"},
    ("desk-split4", 5): {
        "rounds.csv": "8e47c5faae27196f23bc76e6ce721ef827473f08239888bf1a5346a93fd6162e"},
    ("desk-split4", 6): {
        "rounds.csv": "1a72f839580573fb6a930cc12c52fa9636258909ec0529a28477eccb873b6a9c"},
    ("desk-split4", 7): {
        "rounds.csv": "df1cb2f2e6e7685068817d82978d6c3d505385067036c56791adb62b43690cb1"},
    ("desk-split4", 8): {
        "rounds.csv": "9674ec8c3d482c9365c5e2e5ca013eedc6a3c4648dabca8258d745b6b3dd21cc"},
    ("desk-split4", 9): {
        "rounds.csv": "4b2e4035a79a6857d4dda68f85a114982aecb5427a61cad6509b5f116eefb0e8"},
    ("desk-split4", 10): {
        "rounds.csv": "d162016ac9d6ef8c3dbfe55bf24a4d51650e9af74c83e0c5438b6ee1b7a0055e"},
    ("desk-split4", 11): {
        "rounds.csv": "2350e342bbb93706f3bee0503efaea3863a4e890a2b723be1e37ba901d3a7e18"},
    ("permuted10-ebr-vs-naive", 1): {
        "ebr/rounds.csv": "e4ccb6983e2af8b7976545703949a991ab00d72ab6a4eaf0cc0b04051241f69e",
        "naive/rounds.csv": "e4ccb6983e2af8b7976545703949a991ab00d72ab6a4eaf0cc0b04051241f69e"},
    ("permuted10-ebr-vs-naive", 2): {
        "ebr/rounds.csv": "4df40be54041c4ecb6769159aef3ec1fe2638501a9e6053723308d65945734b9",
        "naive/rounds.csv": "4df40be54041c4ecb6769159aef3ec1fe2638501a9e6053723308d65945734b9"},
    ("permuted10-ebr-vs-naive", 3): {
        "ebr/rounds.csv": "9ab3e16cd44099ff091c93ca3b16d5a212943cbfe4b84e404f8f6d95977b5416",
        "naive/rounds.csv": "9ab3e16cd44099ff091c93ca3b16d5a212943cbfe4b84e404f8f6d95977b5416"},
    ("permuted10-ebr-vs-naive", 4): {
        "ebr/rounds.csv": "df5cf6de663f4e89daf6e80107abe4d60006011f62761e189f092ec92f7f30b0",
        "naive/rounds.csv": "df5cf6de663f4e89daf6e80107abe4d60006011f62761e189f092ec92f7f30b0"},
    ("permuted10-ebr-vs-naive", 5): {
        "ebr/rounds.csv": "6a66939c1e37763ed1feb98502e41a5830c74f15d2b47c7ac7808cefbe24640c",
        "naive/rounds.csv": "6a66939c1e37763ed1feb98502e41a5830c74f15d2b47c7ac7808cefbe24640c"},
    ("permuted10-ebr-vs-naive", 6): {
        "ebr/rounds.csv": "f4495cccabc8a4eecab3267f3a800978488d5afc4e7cad83afa20d0426c0c322",
        "naive/rounds.csv": "f4495cccabc8a4eecab3267f3a800978488d5afc4e7cad83afa20d0426c0c322"},
    ("permuted10-ebr-vs-naive", 7): {
        "ebr/rounds.csv": "37667c377c36449c0ad70bff047ce25c5cb95689a491e21c6a3219b36f352a15",
        "naive/rounds.csv": "37667c377c36449c0ad70bff047ce25c5cb95689a491e21c6a3219b36f352a15"},
    ("permuted10-ebr-vs-naive", 8): {
        "ebr/rounds.csv": "f89c5a7ce68d6325bdbb155e87c3b078c05bb591e424c4755ee5fd76d0e6bab3",
        "naive/rounds.csv": "f89c5a7ce68d6325bdbb155e87c3b078c05bb591e424c4755ee5fd76d0e6bab3"},
    ("permuted10-ebr-vs-naive", 9): {
        "ebr/rounds.csv": "0f99bc4939dbc08371da2bf54edf46a60ca20665ba83d749a01847e8b3f9f5ea",
        "naive/rounds.csv": "0f99bc4939dbc08371da2bf54edf46a60ca20665ba83d749a01847e8b3f9f5ea"},
    ("permuted10-ebr-vs-naive", 10): {
        "ebr/rounds.csv": "51009390319f9f08f1c853fb5120ce220486d8401e1268dbaddfd25ddee0fb91",
        "naive/rounds.csv": "51009390319f9f08f1c853fb5120ce220486d8401e1268dbaddfd25ddee0fb91"},
    ("permuted10-ebr-vs-naive", 11): {
        "ebr/rounds.csv": "d9f3cced0a6ea2b98ed027704d824998f73d1c6862a33e75838e66d3861e3340",
        "naive/rounds.csv": "d9f3cced0a6ea2b98ed027704d824998f73d1c6862a33e75838e66d3861e3340"},
    ("scattered-stats-x16-resume", 1): {
        "rounds.csv": "994a086a68dbc9d741cb753ccc27926633f5b24f407f1da893ab3cc3620dd7c7"},
    ("scattered-stats-x16-resume", 2): {
        "rounds.csv": "4960523280c975188f0777b527ef8603854b52547f848d002327702440a9743f"},
    ("scattered-stats-x16-resume", 3): {
        "rounds.csv": "4c3e81fbbe9638b7128edd97f2cc1d427fa5b1006c447da5fb0e680616dfa23b"},
    ("scattered-stats-x16-resume", 4): {
        "rounds.csv": "c0f271861db45488dc6d9cdbb0a64c680952b68229dae85108f58ea3e7077291"},
    ("scattered-stats-x16-resume", 5): {
        "rounds.csv": "040bb05a5170de7342f41e205d735c4fbcf0ab8e053b440b7062d5e4af15bba5"},
    ("scattered-stats-x16-resume", 6): {
        "rounds.csv": "be74ddb9c8c801595d7ca1ab0beaae72f6736b5fc5e9fe45ea4c915c837c8b5f"},
    ("scattered-stats-x16-resume", 7): {
        "rounds.csv": "e99a7f834c6660cfe2a4592c86071629eb92431e9fc30768c4b5d5d5198c06bf"},
    ("scattered-stats-x16-resume", 8): {
        "rounds.csv": "e914613a5dd8f83a12ce75f64255832f1dbfa0a11a658894d7ddae560cbdd0cb"},
    ("scattered-stats-x16-resume", 9): {
        "rounds.csv": "a8e68f1f3848b4362f84f8e05bc2bbbaecd93a08792f076a40e92f17b693c65b"},
    ("scattered-stats-x16-resume", 10): {
        "rounds.csv": "d7089b03bf45f7d38afacecdf4c2e528eb98fcda6718a77c21ab44253081b271"},
    ("scattered-stats-x16-resume", 11): {
        "rounds.csv": "81c511d81727e78ecb385d8fd2457e3b00722f33128dc69e2eed44546ea58183"},
}
