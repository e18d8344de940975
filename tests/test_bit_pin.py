"""Exact values of a short training run, pinned so a refactor of the engine
must reproduce the previous code's bits, not merely agree within 1e-9.

Each stepbench plan trains midnet (batch 32) and tinynet (batch 8) for three
`hybrid_step`s from seed 1 under both schedulers. The pins are the loss
reprs, the ledger bytes of each step, the evaluation error count, the sha256
of the gathered dense parameters and each worker's accounted memory peak.
A deliberate change to the numerics must re-capture them.
"""

import hashlib
from pathlib import Path

import pytest

from parconv import gen_synthetic, load_network, load_plan, rng, schemes, spawn
from parconv.kernels import SgdState
from parconv.netdef import columnize

from oracles import CONFIGS

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "stepbench" / "configs"
NETS = {"midnet": (BENCH_CONFIGS / "midnet.net", 32), "tinynet": (CONFIGS / "tinynet.net", 8)}
PLANS = ("d1m1", "d2m1", "d1m2", "d2m2", "d4m1")
STEPS, SEED = 3, 1


def fingerprint(net_name: str, plan_name: str, sched: str):
    path, batch = NETS[net_name]
    net = load_network(path)
    plan = load_plan(BENCH_CONFIGS / f"{plan_name}.plan")
    cs = schemes.plan_columnized(net, plan)
    train, test = gen_synthetic(net.classes, STEPS * batch // net.classes + 1,
                                net.input_shape, SEED, 1)
    order = rng.permutation(SEED, 0, train.size)
    fab = spawn(plan.workers, scheduling=sched)
    schemes.setup_workers(fab, plan, cs, schemes.init_dense_params(net, SEED), SgdState())
    losses, ledger = [], []
    for k in range(STEPS):
        rows = order[k * batch : (k + 1) * batch]
        res = schemes.hybrid_step(fab, plan, cs, train.images[rows], train.labels[rows])
        losses.append(repr(res.loss))
        ledger.append(res.ledger_bytes)
    errors = schemes.evaluation_errors(fab, plan, cs, test.images, test.labels)
    digest = hashlib.sha256()
    for _, layer in sorted(schemes.gather_dense_params(fab, plan, cs).items()):
        digest.update(layer["w"].tobytes())
        digest.update(layer["b"].tobytes())
    return losses, ledger, errors, digest.hexdigest(), list(fab.meter.peak)


PINNED = {  # (net, plan): (loss reprs, ledger bytes, errors, params sha256, meter peaks)
    ("midnet", "d1m1"): (
        ["2.7979064140459773", "5.448828463206994", "3.7983797056814037"], [0, 0, 0], 9,
        "26718cac659b5817824d20b0bd20ea0d35bae8430afefac96c9a66c8041d25d9", [4929360]),
    ("midnet", "d2m1"): (
        ["2.7979064140459773", "5.448828463206994", "3.7983797056814037"], [707920] * 3, 9,
        "171647c95a0af6d017f3f4d64edac690374b1307362f57934eb21548d1756159", [2818640, 2464680]),
    ("midnet", "d1m2"): (
        ["2.7979064140459773", "5.448828463206994", "3.798379705681404"], [901120] * 3, 9,
        "6f4a5ab01974f357463e6c0f75630e077d1176efe6bf05bac8afe331dd0fadd0", [3029712] * 2),
    ("midnet", "d2m2"): (
        ["2.7979064140459773", "5.448828463206993", "3.7983797056814033"], [1614240] * 3, 9,
        "4a11221671133c8a7439600855903dbe2ff80f073c6243dec612219d5c634014",
        [1693136, 1693136, 1514856, 1514856]),
    ("midnet", "d4m1"): (
        ["2.7979064140459773", "5.448828463206993", "3.798379705681404"], [2123760] * 3, 9,
        "0191044a13f4cf3f981e47502a224041d9e3a0222e68d417a1b35033d9edd112",
        [1763280, 1409320, 1409320, 1409320]),
    ("tinynet", "d1m1"): (
        ["3.9142486905730447", "2.104046861578172", "3.136909279745309"], [0, 0, 0], 7,
        "f3198bd16408a4d44e6166983520d9cc0adba253deb6c19502486258bd5f305e", [347920]),
    ("tinynet", "d2m1"): (
        ["3.9142486905730447", "2.104046861578172", "3.1369092797453098"], [140432] * 3, 7,
        "8d62e4cb15f224206dc62de90d47bbd0ac6e39801630ec5fbb391ff8dbd902c9", [244176, 173960]),
    ("tinynet", "d1m2"): (
        ["3.914248690573045", "2.1040468615781713", "3.1369092797453093"], [67584] * 3, 7,
        "5ea37817eebbf35a02dcdcebc4be7365d5c15ac904af9afc88f04483934c35d4", [221680] * 2),
    ("tinynet", "d2m2"): (
        ["3.914248690573045", "2.1040468615781713", "3.136909279745309"], [210656] * 3, 7,
        "0e0a89ce924b48eaf3dbdcaa7e6c6ff09667a6ea92fc3651f2799708ea2e9d10",
        [146608, 146608, 110840, 110840]),
    ("tinynet", "d4m1"): (
        ["3.9142486905730447", "2.104046861578172", "3.1369092797453093"], [421296] * 3, 7,
        "ecab2166155d70fe48c6df97ccce772fdbd21af07588b8f72ff4da668d0c804c",
        [192304, 122088, 122088, 122088]),
}

LAYER_NAMES = {
    "alexnet": ["conv96k11", "relu", "maxpool3s2", "conv256k5", "relu", "maxpool3s2",
                "conv384k3", "relu", "conv384k3", "relu", "conv256k3", "relu", "maxpool3s2",
                "fc4096", "relu", "fc4096", "relu", "fc1000", "softmax1000"],
    "fcmid": ["conv16k5", "relu", "maxpool2s2", "conv32k5", "relu", "maxpool2s2", "fc1024",
              "relu", "fc10", "softmax10"],
    "midnet": ["conv16k5", "relu", "maxpool2s2", "conv32k5", "relu", "maxpool2s2", "fc64",
               "relu", "fc10", "softmax10"],
    "minialex": ["conv24k11", "relu", "maxpool3s2", "conv64k5", "relu", "maxpool3s2",
                 "conv96k3", "relu", "conv96k3", "relu", "conv64k3", "relu", "maxpool3s2",
                 "fc1024", "relu", "fc1024", "relu", "fc10", "softmax10"],
    "minicnn": ["conv4k3", "relu", "fc10", "softmax10"],
    "tinynet": ["conv8k3", "relu", "maxpool2s2", "conv8k3", "relu", "fc32", "relu", "fc10",
                "softmax10"],
    "tinynet2": ["conv8k3", "relu", "maxpool2s2", "conv8k3", "relu", "fc32", "relu", "fc2",
                 "softmax2"],
}


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_step_bits_match_pins(net_name):
    for plan_name in PLANS:
        for sched in ("lockstep", "threads"):
            got = fingerprint(net_name, plan_name, sched)
            assert got == PINNED[net_name, plan_name], (net_name, plan_name, sched)


def test_shipped_layer_names_match_pins():
    nets = sorted([*CONFIGS.glob("*.net"), *BENCH_CONFIGS.glob("*.net")])
    got = {p.stem: [cl.name for cl in columnize(load_network(p), 1).col_layers] for p in nets}
    assert got == LAYER_NAMES
