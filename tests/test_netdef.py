import numpy as np
import pytest

from parconv.errors import PartitionError, ValidationError
from parconv.netdef import (
    NetworkSpec,
    ReLU,
    SoftmaxXent,
    column_footprint_elements,
    columnize,
    load_network,
    parse_network,
    shape_report,
    worker_footprint_bytes,
)

from parconv.schemes import ParallelPlan, comm_phases

from oracles import MacCounter, naive_conv2d, naive_matmul

TINY = """
input 3 16 16
conv 8 3 1 1
relu
maxpool 2 2
conv 8 3 1 1
relu
fc 32
relu
fc 10
softmax 10
"""


# ---------------------------------------------------------------------------
# parsing and shape inference
# ---------------------------------------------------------------------------


def test_parse_five_layer_example():
    net = parse_network("input 1 8 8\nconv 4 3 1 1\nrelu\nfc 10\nsoftmax 10\n")
    assert len(net.layers) == 5 - 1  # input line is the declaration, 4 layers follow
    shapes = net.output_shapes()
    assert shapes[0] == (4, 8, 8)  # conv output inferred
    assert shapes[-1] == (10,)


def test_parse_comments_and_blank_lines():
    net = parse_network("# header\n\ninput 1 4 4  # trailing\nfc 6\nrelu\nfc 3\nsoftmax 3\n")
    assert net.output_shapes() == [(6,), (6,), (3,), (3,)]


def test_parse_empty_layer_list_rejected():
    with pytest.raises(ValidationError):
        parse_network("input 1 8 8\n")


def test_softmax_must_be_last():
    with pytest.raises(ValidationError):
        parse_network("input 1 4 4\nsoftmax 16\nrelu\n")
    with pytest.raises(ValidationError):
        NetworkSpec("bad", (1, 4, 4), (SoftmaxXent(16), ReLU()))


def test_unknown_keyword_and_arity_errors():
    with pytest.raises(ValidationError, match="unknown layer keyword"):
        parse_network("input 1 4 4\navgpool 2 2\n")
    with pytest.raises(ValidationError, match="conv takes"):
        parse_network("input 1 4 4\nconv 4 3\n")
    with pytest.raises(ValidationError, match="must come first"):
        parse_network("conv 4 3 1 1\ninput 1 4 4\n")


def test_shape_mismatch_names_layer_index():
    with pytest.raises(ValidationError, match="layer 1"):
        parse_network("input 1 5 5\nconv 4 3 1 0\nconv 2 4 1 0\nsoftmax 2\n")
    with pytest.raises(ValidationError, match="softmax over 10 classes fed by 32"):
        parse_network("input 1 4 4\nfc 32\nsoftmax 10\n")


@pytest.mark.parametrize(
    "line", ["conv 4 3 0 1", "conv 4 3 1 -1", "conv 4 0 1 0", "maxpool 2 0", "maxpool 0 1"]
)
def test_bad_window_names_layer(line):
    with pytest.raises(ValidationError, match=r"layer 0 \(.*kernel >= 1, stride >= 1 and pad >= 0"):
        parse_network(f"input 1 8 8\n{line}\nfc 10\nsoftmax 10\n")


def test_conv_after_fc_rejected():
    with pytest.raises(ValidationError, match="CxHxW"):
        parse_network("input 1 4 4\nfc 8\nconv 2 1 1 0\nsoftmax 2\n")


def test_shape_inference_total_and_positive():
    net = parse_network(TINY, name="tinynet")
    shapes = net.output_shapes()
    assert len(shapes) == len(net.layers)
    for s in shapes:
        assert all(e > 0 for e in s)
    assert shapes == [
        (8, 16, 16), (8, 16, 16), (8, 8, 8), (8, 8, 8), (8, 8, 8),
        (32,), (32,), (10,), (10,),
    ]


def test_load_network_names_from_filename():
    net = load_network("configs/tinynet.net")
    assert net.name == "tinynet"


# ---------------------------------------------------------------------------
# accounting: params, FLOPs, activations
# ---------------------------------------------------------------------------


def test_parameter_count_examples():
    fc_net = parse_network("input 1 1 10\nfc 5\nsoftmax 5\n")
    rep = shape_report(fc_net, 1)
    assert rep.rows[0].params == 10 * 5 + 5 == 55
    conv_net = parse_network("input 1 8 8\nconv 4 3 1 1\nrelu\nfc 10\nsoftmax 10\n")
    rep = shape_report(conv_net, 1)
    assert rep.rows[0].params == 4 * 9 + 4 == 40


def test_flops_match_instrumented_naive_oracle():
    net = parse_network("input 2 6 6\nconv 3 3 1 1\nrelu\nfc 7\nsoftmax 7\n")
    batch = 2
    rep = shape_report(net, batch)
    rs = np.random.RandomState(0)
    x = rs.randn(batch, 2, 6, 6)

    macs = MacCounter()
    conv_out = naive_conv2d(x, rs.randn(3, 2, 3, 3), np.zeros(3), 1, 1, macs)
    assert rep.rows[0].flops_forward == 2 * macs.count
    assert rep.rows[0].flops_backward == 2 * rep.rows[0].flops_forward

    macs = MacCounter()
    flat = np.maximum(conv_out, 0).reshape(batch, -1)
    naive_matmul(flat, rs.randn(flat.shape[1], 7), macs)
    assert rep.rows[2].flops_forward == 2 * macs.count
    # non-MAC layers carry no FLOPs by convention
    assert rep.rows[1].flops_forward == 0


def test_report_totals_are_sums():
    net = parse_network(TINY)
    rep = shape_report(net, 4)
    assert rep.total_params == sum(r.params for r in rep.rows)
    assert rep.total_flops == sum(r.flops_forward + r.flops_backward for r in rep.rows)
    assert rep.total_activation_bytes == sum(r.activation_bytes for r in rep.rows)
    assert rep.rows[0].activation_bytes == 4 * 8 * 16 * 16 * 4


def test_shape_report_rejects_bad_batch():
    with pytest.raises(ValidationError):
        shape_report(parse_network(TINY), 0)


# ---------------------------------------------------------------------------
# columnization
# ---------------------------------------------------------------------------


def test_columnize_halves_filters():
    net = parse_network("input 3 8 8\nconv 96 3 1 1\nrelu\nfc 10\nsoftmax 10\n")
    cs = columnize(net, 2)
    assert cs.col_layers[0].weight_shape[0] == 48  # N/2 filters per column


def test_columnize_m1_matches_base():
    net = parse_network(TINY)
    cs = columnize(net, 1)
    assert cs.cross_layers == frozenset()
    assert cs.column_param_count == 17554
    dense_shapes = net.output_shapes()
    for cl, shape in zip(cs.col_layers, dense_shapes):
        assert cl.out_shape == shape
        assert not cl.cross


def test_columnize_divisibility_error_names_layer():
    net = parse_network("input 3 8 8\nconv 7 3 1 1\nrelu\nfc 10\nsoftmax 10\n")
    with pytest.raises(PartitionError, match="layer 0"):
        columnize(net, 2)


def test_columnize_effective_cross_set_and_head():
    net = parse_network(TINY)
    cs = columnize(net, 2, (3,))
    assert sorted(cs.cross_layers) == [3, 5, 7]  # designated conv + every fc
    assert cs.head_index == 7
    head = cs.col_layers[7]
    assert head.shared and head.cross
    assert head.weight_shape == (32, 10)  # replicated: full head in each column


def test_columnize_cross_validation():
    net = parse_network(TINY)
    with pytest.raises(PartitionError, match="not a cross point"):
        columnize(net, 2, (0,))
    with pytest.raises(PartitionError, match="conv or fc"):
        columnize(net, 2, (2,))
    with pytest.raises(PartitionError, match="out of range"):
        columnize(net, 2, (99,))


def test_columnize_four_way_tinynet():
    # head (fc 10) is shared, so 10 never needs to divide m
    net = parse_network(TINY)
    cs = columnize(net, 4, (3,))
    assert cs.col_layers[0].weight_shape[0] == 2
    assert cs.col_layers[5].weight_shape == (512, 8)
    assert cs.col_layers[7].weight_shape == (32, 10)


def test_split_param_totals_vs_dense():
    # split layers at crosses keep the dense total; the replicated head adds
    # (m - 1) extra copies
    net = parse_network(TINY)
    dense = columnize(net, 1)
    cs = columnize(net, 2, (3,))
    head_params = 32 * 10 + 10
    assert cs.column_param_count * 2 == dense.column_param_count + head_params
    # hand count on a 2-layer example: conv consumes the full input, fc head is shared
    mini = parse_network("input 1 8 8\nconv 4 3 1 1\nrelu\nfc 10\nsoftmax 10\n")
    cs2 = columnize(mini, 2)
    conv_col = 2 * 1 * 9 + 2
    head = 256 * 10 + 10
    assert cs2.column_param_count == conv_col + head


def test_grouped_column_consumes_slice():
    # without the designated conv cross, tinynet's second conv consumes the
    # column's own 4-channel slice
    net = parse_network(TINY)
    cs = columnize(net, 2, ())
    assert sorted(cs.cross_layers) == [5, 7]
    assert cs.col_layers[3].weight_shape == (4, 4, 3, 3)


# ---------------------------------------------------------------------------
# cross-connection bytes
# ---------------------------------------------------------------------------


def test_cross_bytes_zero_for_single_column():
    net = parse_network(TINY)
    assert comm_phases(ParallelPlan(1, 1), columnize(net, 1), 16) == []


def test_cross_bytes_hand_count_100_element_slice():
    # one designated cross layer whose per-column slice is 100 elements:
    # forward 2 * 100 * 2 * 4 = 1600 bytes, doubled for backward = 3200
    net = parse_network(
        "input 1 10 10\nconv 2 1 1 0\nrelu\nconv 2 1 1 0\nfc 2\nsoftmax 2\n"
    )
    cs = columnize(net, 2, (2,))
    phases = comm_phases(ParallelPlan(1, 2), cs, 2)
    assert sum(ph.total_bytes for ph in phases if ph.label in ("cross2-fwd", "cross2-bwd")) == 3200


def test_cross_bytes_tinynet_breakdown():
    net = parse_network(TINY)
    cs = columnize(net, 2, (3,))
    per_layer = {}
    for ph in comm_phases(ParallelPlan(1, 2, (3,)), cs, 4):
        index = int(ph.label[len("cross"):].split("-")[0])
        per_layer[index] = per_layer.get(index, 0) + ph.total_bytes
    # full maps entering each cross: 512, 512, and 32 elements per sample
    assert per_layer == {3: 2 * 4 * 512 * 4, 5: 2 * 4 * 512 * 4, 7: 2 * 4 * 32 * 4}


# ---------------------------------------------------------------------------
# memory footprints
# ---------------------------------------------------------------------------


def test_footprint_elements_match_hand_count_dense():
    net = parse_network(TINY)
    cs = columnize(net, 1)
    params, acts = column_footprint_elements(cs, 2)
    assert params == 17554
    # input + every layer output (+ softmax workspace), per sample, times batch
    per_sample = 768 + 2048 + 2048 + 512 + 512 + 512 + 32 + 32 + 10 + 10
    assert acts == 2 * per_sample


def test_footprint_column_smaller_than_dense():
    net = parse_network(TINY)
    full = worker_footprint_bytes(columnize(net, 1), 8)
    col = worker_footprint_bytes(columnize(net, 2, (3,)), 8)
    assert col < full
    assert worker_footprint_bytes(columnize(net, 1), 8, holds_velocity=False) == full - 17554 * 4
