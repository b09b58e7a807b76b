"""JSON layer-table import/export."""

import pytest

from repro.hardware.serde import SerdeError
from repro.workload.dims import LoopDim
from repro.workload.importer import (
    layer_from_dict,
    layers_from_json,
    layers_to_json,
    load_layers,
)
from repro.workload.layer import LayerType
from repro.workload.networks import hand_tracking_layers


def test_basic_conv_import():
    layer = layer_from_dict(
        {
            "name": "c1",
            "type": "Conv2D",
            "dims": {"K": 8, "C": 3, "OX": 16, "OY": 16, "FX": 3, "FY": 3},
            "stride": 2,
        }
    )
    assert layer.layer_type is LayerType.CONV2D
    assert layer.stride_x == 2 and layer.stride_y == 2
    assert layer.size(LoopDim.B) == 1  # defaulted


def test_type_aliases():
    for alias, expected in (
        ("gemm", LayerType.DENSE),
        ("fc", LayerType.DENSE),
        ("dwconv", LayerType.DEPTHWISE),
        ("conv1x1", LayerType.POINTWISE),
    ):
        layer = layer_from_dict(
            {"type": alias, "dims": {"B": 2, "K": 4} if expected is LayerType.DENSE
             else {"K": 4, "OX": 2, "OY": 2, "FX": 3 if expected is LayerType.DEPTHWISE else 1,
                   "FY": 3 if expected is LayerType.DEPTHWISE else 1,
                   **({"C": 2} if expected is LayerType.POINTWISE else {})}}
        )
        assert layer.layer_type is expected


def test_precision_import():
    layer = layer_from_dict(
        {"type": "dense", "dims": {"B": 2, "K": 2, "C": 2},
         "precision": {"w": 4, "i": 4, "o_final": 16, "o_partial": 20}}
    )
    assert layer.precision.w == 4
    assert layer.precision.o_partial == 20


def test_asymmetric_strides():
    layer = layer_from_dict(
        {"type": "conv", "dims": {"K": 2, "C": 2, "OX": 4, "OY": 4, "FX": 3, "FY": 3},
         "stride_x": 2, "stride_y": 1}
    )
    assert layer.stride_x == 2 and layer.stride_y == 1


def test_errors():
    with pytest.raises(SerdeError, match="needs 'layer_type'"):
        layer_from_dict({"dims": {}})
    with pytest.raises(SerdeError, match="unknown layer type"):
        layer_from_dict({"type": "pooling", "dims": {}})
    with pytest.raises(SerdeError, match="unknown loop dim"):
        layer_from_dict({"type": "dense", "dims": {"Z": 4}})
    with pytest.raises(SerdeError, match="malformed layer"):
        layer_from_dict({"type": "dense", "dims": {"B": 2, "OX": 4}})
    with pytest.raises(SerdeError, match="invalid JSON"):
        layers_from_json("{")
    with pytest.raises(SerdeError, match="must be a JSON list"):
        layers_from_json("{}")


def test_roundtrip_hand_tracking(tmp_path):
    original = hand_tracking_layers(limit=6)
    text = layers_to_json(original)
    path = tmp_path / "layers.json"
    path.write_text(text)
    restored = load_layers(str(path))
    assert len(restored) == 6
    for a, b in zip(original, restored):
        assert a.layer_type == b.layer_type
        assert a.dims == b.dims
        assert a.stride_x == b.stride_x
        assert a.total_macs == b.total_macs


@pytest.mark.parametrize("text, says", [
    ("[1]", "layer entry must be an object, got 1"),
    ('[{"type": "dense", "dims": [1]}]', "'dims' must be an object, got [1]"),
    ('[{"name": "fc", "type": "dense", "dims": {"K": 2}, "precision": [8]}]',
     "layer 'fc': 'precision' must be an object, got [8]"),
    ('[{"name": "fc", "type": "dense", "dims": {"K": "x"}}]',
     "layer 'fc': dims[K] must be an integer, got 'x'"),
    ('[{"type": "dense", "dims": {"B": 2.7, "K": 2}}]',
     "layer '?': dims[B] must be an integer, got 2.7"),
    ('[{"type": "conv", "dims": {"K": 2}, "stride": "a"}]',
     "layer '?': stride_x must be an integer, got 'a'"),
    ('[{"type": "conv", "dims": {"K": 2}, "stride_y": [2]}]',
     "layer '?': stride_y must be an integer, got [2]"),
    ('[{"type": "dense", "dims": {"K": 2}, "precision": {"w": null}}]',
     "precision[w] must be an integer, got None"),
    ('[{"type": "dense", "dims": {"K": 2}, "precision": {"q": 8}}]',
     "layer '?': unknown precision field 'q'"),
])
def test_malformed_entry_is_a_typed_error_naming_it(text, says):
    with pytest.raises(SerdeError) as err:
        layers_from_json(text)
    assert says in str(err.value)
