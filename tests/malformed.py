"""Malformed checkpoint and config inputs shared by the loader and CLI tests.

Checkpoints are packed by hand here, independent of the codec under test:
b"CKPT" | uint32-LE header length | JSON header | RTS1 records.
"""

import json
import struct

import numpy as np

from changeseries.model import ModelConfig


def rts1(arr, dtype="<f4") -> bytes:
    arr = np.asarray(arr)
    head = b"RTS1" + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype(dtype).tobytes(order="C")


def pack(header, body: bytes) -> bytes:
    raw = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    return b"CKPT" + struct.pack("<I", len(raw)) + raw + body


A = np.arange(6.0).reshape(2, 3)
B = np.array([0.5, -1.0, 2.0, 4.0])
REC_A, REC_B = rts1(A), rts1(B)
## float32 bits: 0.5, a signalling NaN (0x7F800001), 2.0, 4.0
SNAN = np.array([0x3F000000, 0x7F800001, 0x40000000, 0x40800000], dtype="<u4").view("<f4")
META = {"model": ModelConfig().to_jsonable()}


def index(name_b="b"):
    return [{"name": "a"}, {"name": name_b}]


GOOD = pack({"meta": META, "index": index()}, REC_A + REC_B)


def older_index(offset_b=len(REC_A), shape_a=(2, 3)):
    """GOOD's index as files of the older layout wrote it: each entry also held
    its record's offset after the header and its shape."""
    return [
        {"name": "a", "offset": 0, "shape": list(shape_a)},
        {"name": "b", "offset": offset_b, "shape": [4]},
    ]


## name -> GOOD's records under an older-layout index; the loader reads only
## names, so these load GOOD's values whatever the offsets and shapes say
OLDER_LAYOUT = {
    "offsets_and_shapes": pack({"meta": META, "index": older_index()}, REC_A + REC_B),
    "entry_offset_not_int": pack(
        {"meta": META, "index": [dict(e, offset=str(e["offset"])) for e in older_index()]},
        REC_A + REC_B,
    ),
    "overlapping_offsets": pack(
        {"meta": META, "index": older_index(offset_b=len(REC_A) - 4)}, REC_A + REC_B
    ),
    "shape_mismatch": pack({"meta": META, "index": older_index(shape_a=(3, 2))}, REC_A + REC_B),
}

## name -> checkpoint bytes that load_checkpoint must refuse
CHECKPOINTS = {
    "nan_payload": pack(
        {"meta": META, "index": index()}, REC_A + rts1([0.5, np.nan, 2.0, 4.0])
    ),
    "signalling_nan_payload": pack({"meta": META, "index": index()}, REC_A + rts1(SNAN)),
    "trailing_bytes": GOOD + b"\x00" * 4,
    "truncated_record": GOOD[:-4],
    "truncated_header": GOOD[:12],
    ## the gap's zero bytes are not the next record's RTS1 magic
    "gap_between_offsets": pack(
        {"meta": META, "index": older_index(offset_b=len(REC_A) + 4)},
        REC_A + b"\x00" * 4 + REC_B,
    ),
    "index_not_a_list": pack({"meta": META, "index": {"a": 0}}, REC_A + REC_B),
    "header_is_array": pack(b"[1, 2]", REC_A + REC_B),
    "header_without_meta": pack({"index": index()}, REC_A + REC_B),
    "header_not_utf8": pack(b"\xff\xfe{}", REC_A + REC_B),
    "header_not_json": pack(b"{meta", REC_A + REC_B),
    "entry_without_name": pack(
        {"meta": META, "index": [{"offset": 0, "shape": [2, 3]}]}, REC_A
    ),
    "duplicate_name": pack({"meta": META, "index": index(name_b="a")}, REC_A + REC_B),
    "bad_record_magic": pack({"meta": META, "index": index()}, REC_A + b"JUNK" + REC_B[4:]),
}


def _model_json(**changes):
    obj = ModelConfig().to_jsonable()
    obj.update(changes)
    return obj


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


## name -> a checkpoint "model" section that ModelConfig.from_jsonable must refuse
MODEL_CONFIGS = {
    "backbone_not_object": _model_json(backbone=5),
    "temporal_not_object": _model_json(temporal=[2, 2]),
    "missing_key": _without(_model_json(), "seed"),
    "nested_missing_key": _model_json(backbone=_without(_model_json()["backbone"], "scales")),
    "wrong_type": _model_json(seed="0"),
    "bool_for_int": _model_json(backbone=dict(_model_json()["backbone"], scales=True)),
    "not_object": [1, 2],
}
