"""Group references: GIOR stringification, parsing, member lookup."""

import binascii

import pytest

from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.orb.reference import (
    GroupReference,
    ObjectReference,
    parse_reference,
)
from repro.orb.transport import PortAddress


def make_ref(key, nports=0):
    return ObjectReference(
        object_key=key,
        repo_id="IDL:svc:1.0",
        request_port=PortAddress(1, f"req-{key}"),
        data_ports=tuple(
            PortAddress(10 + i, f"d-{key}-{i}") for i in range(nports)
        ),
        param_templates=((("op", "darray"), ("proportions", (2,))),),
    )


def make_group():
    return GroupReference(
        group_name="svc",
        repo_id="IDL:svc:1.0",
        epoch=4,
        members=tuple(
            (rid, make_ref(f"svc#{rid}", nports=rid)) for rid in (0, 1, 2)
        ),
    )


def pre_change_gior(group, loads):
    """``group`` as a GIOR carried it while it had a loads section:
    the same fields, then ``(replica_id, milli-units)`` pairs."""
    enc = CdrEncoder()
    enc.write_string(group.group_name)
    enc.write_string(group.repo_id)
    enc.write_ulong(group.epoch)
    enc.write_ulong(len(group.members))
    for rid, ref in group.members:
        enc.write_ulong(rid)
        enc.write_string(ref.ior())
    enc.write_ulong(len(loads))
    for rid, value in loads:
        enc.write_ulong(rid)
        enc.write_ulong(int(value * 1000.0))
    return "GIOR:" + binascii.hexlify(enc.getvalue()).decode("ascii")


class TestGiorRoundtrip:
    def test_roundtrip_preserves_everything(self):
        group = make_group()
        text = group.ior()
        assert text.startswith("GIOR:")
        back = GroupReference.from_ior(text)
        assert back == group

    def test_nested_member_references_survive(self):
        back = GroupReference.from_ior(make_group().ior())
        assert back.member(2).nthreads == 2
        assert back.member(2).template_spec("op", "darray") == (
            "proportions",
            (2,),
        )

    def test_the_encoding_is_name_repo_id_epoch_and_members(self):
        group = make_group()
        dec = CdrDecoder(binascii.unhexlify(group.ior()[5:]))
        assert dec.read_string() == "svc"
        assert dec.read_string() == "IDL:svc:1.0"
        assert dec.read_ulong() == 4
        assert dec.read_ulong() == 3
        for rid, ref in group.members:
            assert dec.read_ulong() == rid
            assert dec.read_string() == ref.ior()
        assert dec.remaining == 0


class TestGiorErrors:
    def test_wrong_prefix(self):
        with pytest.raises(ValueError, match="not a stringified group"):
            GroupReference.from_ior("IOR:00")

    def test_non_hex_payload(self):
        with pytest.raises(ValueError, match="malformed GIOR"):
            GroupReference.from_ior("GIOR:zz")

    def test_truncated_payload(self):
        text = make_group().ior()
        with pytest.raises(ValueError, match="malformed GIOR"):
            GroupReference.from_ior(text[: len(text) // 2])

    def test_trailing_octets(self):
        with pytest.raises(
            ValueError, match="malformed GIOR: 1 trailing octets"
        ):
            GroupReference.from_ior(make_group().ior() + "00")

    @pytest.mark.parametrize(
        "loads", [(), ((0, 0.25), (2, 7.5))], ids=["empty", "two-readings"]
    )
    def test_a_gior_with_a_loads_section_is_rejected(self, loads):
        group = make_group()
        text = pre_change_gior(group, loads)
        # What follows the members: the section, with its alignment.
        extra = (len(text) - len(group.ior())) // 2
        assert text.startswith(group.ior())
        with pytest.raises(
            ValueError, match=f"malformed GIOR: {extra} trailing octets"
        ):
            GroupReference.from_ior(text)


class TestAccessors:
    def test_replica_ids(self):
        assert make_group().replica_ids == (0, 1, 2)

    def test_member_lookup_raises_for_unknown(self):
        with pytest.raises(KeyError, match="no replica 9"):
            make_group().member(9)

    def test_str_mentions_group_shape(self):
        text = str(make_group())
        assert "'svc'" in text and "3 replicas" in text


class TestParseReference:
    def test_dispatches_by_prefix(self):
        group = make_group()
        single = make_ref("solo")
        assert parse_reference(group.ior()) == group
        assert parse_reference(single.ior()) == single
