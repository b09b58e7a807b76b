"""The public testing utilities (repro.testing)."""

from repro.mapping.loop import Loop
from repro.testing import loops, make_mapping, toy_accelerator
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand


def test_toy_accelerator_defaults():
    acc = toy_accelerator()
    assert acc.name == "toy"
    assert acc.mac_array.size == 1
    assert set(acc.memory_names()) == {"W-Reg", "I-Reg", "O-Reg", "GB"}
    # Shared GB level object.
    h = acc.hierarchy
    assert h.outermost(Operand.W) is h.outermost(Operand.O)


def test_toy_accelerator_parametrization():
    acc = toy_accelerator(array=4, reg_bits=32, gb_read_bw=7.5,
                          reg_double_buffered=True, reg_instances=4)
    assert acc.mac_array.size == 4
    w_reg = acc.memory_by_name("W-Reg").instance
    assert w_reg.size_bits == 32 and w_reg.instances == 4
    assert w_reg.double_buffered
    assert acc.memory_by_name("GB").instance.port("rd").bandwidth == 7.5


def test_loops_helper():
    ls = loops(("K", 4), ("B", 2))
    assert ls == [Loop(LoopDim.K, 4), Loop(LoopDim.B, 2)]


def test_make_mapping_helper():
    layer = dense_layer(2, 4, 8)
    mapping = make_mapping(
        layer,
        {},
        {
            Operand.W: [loops(("C", 8)), loops(("B", 2), ("K", 4))],
            Operand.I: [loops(("C", 8)), loops(("B", 2), ("K", 4))],
            Operand.O: [loops(("C", 8), ("B", 2)), loops(("K", 4))],
        },
    )
    assert mapping.spatial_cycles == 64
    assert mapping.temporal.num_levels(Operand.O) == 2


def test_toy_machine_is_modelable():
    from repro.core.model import LatencyModel

    acc = toy_accelerator(reg_bits=64, o_reg_bits=24 * 4)
    layer = dense_layer(2, 2, 4)
    mapping = make_mapping(
        layer, {},
        {
            Operand.W: [loops(("C", 4)), loops(("B", 2), ("K", 2))],
            Operand.I: [loops(("C", 4)), loops(("B", 2), ("K", 2))],
            Operand.O: [loops(("C", 4)), loops(("B", 2), ("K", 2))],
        },
    )
    report = LatencyModel(acc).evaluate(mapping)
    assert report.total_cycles >= 16
