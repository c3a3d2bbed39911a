"""Naming service and object-reference tests."""

import pytest

from repro import compile_idl
from repro.orb.nameservice import NAMING_IDL
from repro.orb.naming import NamingError, NamingService
from repro.orb.reference import ObjectReference
from repro.orb.transport import PortAddress
from tests.naming_transports import TRANSPORTS, reach


def make_ref(key="obj", nports=0):
    return ObjectReference(
        object_key=key,
        repo_id=f"IDL:{key}:1.0",
        request_port=PortAddress(1, "req"),
        data_ports=tuple(
            PortAddress(10 + i, f"d{i}") for i in range(nports)
        ),
        param_templates=(
            (("diffusion", "darray"), ("proportions", (2, 4))),
        ),
    )


class TestObjectReference:
    def test_nthreads(self):
        assert make_ref().nthreads == 1
        assert make_ref(nports=4).nthreads == 4

    def test_multiport_capable(self):
        assert not make_ref().multiport_capable
        assert make_ref(nports=2).multiport_capable

    def test_template_lookup(self):
        ref = make_ref()
        assert ref.template_spec("diffusion", "darray") == (
            "proportions",
            (2, 4),
        )
        assert ref.template_spec("diffusion", "other") is None

    def test_ior_roundtrip(self):
        ref = make_ref(nports=3)
        text = ref.ior()
        assert text.startswith("IOR:")
        assert ObjectReference.from_ior(text) == ref

    def test_malformed_ior(self):
        with pytest.raises(ValueError, match="not a stringified"):
            ObjectReference.from_ior("nope")
        with pytest.raises(ValueError, match="malformed"):
            ObjectReference.from_ior("IOR:zzzz")

    def test_trailing_octets_are_malformed(self):
        with pytest.raises(
            ValueError, match="malformed IOR: 4 trailing octets"
        ):
            ObjectReference.from_ior(make_ref().ior() + "deadbeef")

    def test_ior_must_contain_reference(self):
        import binascii

        fake = "IOR:" + binascii.hexlify(b"\x01not a reference").decode()
        with pytest.raises(ValueError, match="malformed"):
            ObjectReference.from_ior(fake)

    def test_ior_is_not_pickle(self):
        """The stringified form is pure CDR — parsing attacker-supplied
        IORs can never execute code."""
        import binascii

        blob = binascii.unhexlify(make_ref(nports=2).ior()[4:])
        assert b"pickle" not in blob
        # CDR streams start with the byte-order flag, not pickle's
        # protocol opcode \x80.
        assert blob[0] in (0, 1)


@pytest.fixture(params=TRANSPORTS)
def naming(request):
    with reach(NamingService(), request.param) as naming:
        yield naming


class TestNaming:
    def test_bind_resolve(self, naming):
        ref = make_ref()
        naming.bind("example", ref)
        assert naming.resolve("example") == ref

    def test_duplicate_bind_rejected(self, naming):
        naming.bind("example", make_ref())
        with pytest.raises(NamingError, match="already bound"):
            naming.bind("example", make_ref())

    def test_rebind_replaces(self, naming):
        naming.bind("example", make_ref("a"))
        newer = make_ref("b")
        naming.rebind("example", newer)
        assert naming.resolve("example") == newer

    def test_unknown_name(self, naming):
        with pytest.raises(NamingError, match="no object"):
            naming.resolve("ghost")

    def test_a_second_compile_of_the_naming_idl_keeps_naming_error(self, naming):
        """A reply's user exception decodes to the class compiled with
        the client's own operation, so compiling the naming IDL again
        under another module name leaves the served client's
        ``NamingFailure`` — and the ``NamingError`` it becomes — as
        it was."""
        compile_idl(NAMING_IDL, module_name="naming_idl_compiled_again")
        with pytest.raises(NamingError, match="no object"):
            naming.resolve("ghost")

    def test_host_scoping(self, naming):
        ref1, ref2 = make_ref("a"), make_ref("b")
        naming.bind("example", ref1, host="host1")
        naming.bind("example", ref2, host="host2")
        assert naming.resolve("example", "host1") == ref1
        assert naming.resolve("example", "host2") == ref2

    def test_ambiguous_without_host(self, naming):
        naming.bind("example", make_ref("a"), host="host1")
        naming.bind("example", make_ref("b"), host="host2")
        with pytest.raises(NamingError, match="several hosts"):
            naming.resolve("example")

    def test_single_registration_resolves_without_host(self, naming):
        naming.bind("example", make_ref(), host="host1")
        assert naming.resolve("example") is not None

    def test_the_empty_host_is_a_host(self, naming):
        """``host=""`` names the registration made without a host;
        only ``host=None`` means "whichever host has it"."""
        naming.bind("example", make_ref(), host="host1")
        with pytest.raises(
            NamingError, match="no object 'example' on host ''"
        ):
            naming.resolve("example", "")
        naming.bind("example", make_ref("bare"))
        assert naming.resolve("example", "").object_key == "bare"

    def test_unknown_host(self, naming):
        naming.bind("example", make_ref(), host="host1")
        with pytest.raises(NamingError, match="host"):
            naming.resolve("example", "other")

    def test_unbind(self, naming):
        naming.bind("example", make_ref())
        naming.unbind("example")
        with pytest.raises(NamingError):
            naming.resolve("example")
        with pytest.raises(NamingError):
            naming.unbind("example")

    def test_unbind_is_host_scoped(self, naming):
        naming.bind("example", make_ref("a"), host="host1")
        naming.bind("example", make_ref("b"), host="host2")
        naming.unbind("example", host="host1")
        # The other host's registration survives and now resolves
        # unambiguously.
        assert naming.resolve("example").object_key == "b"
        # The error names the host that had nothing bound.
        with pytest.raises(
            NamingError, match="no object bound as 'example' on host "
            "'host1'"
        ):
            naming.unbind("example", host="host1")

    def test_unbind_error_without_host_omits_the_host_clause(self, naming):
        with pytest.raises(
            NamingError, match="no object bound as 'ghost'$"
        ):
            naming.unbind("ghost")

    def test_resolve_after_unbind_equals_never_bound(self, naming):
        # No tombstones: an unbound name fails exactly like a name
        # that never existed, and is immediately rebindable.
        naming.bind("example", make_ref("old"))
        naming.unbind("example")
        with pytest.raises(NamingError) as unbound_err:
            naming.resolve("example")
        with pytest.raises(NamingError) as never_err:
            naming.resolve("example-never-bound")
        assert str(unbound_err.value).replace(
            "example", "X"
        ) == str(never_err.value).replace("example-never-bound", "X")
        naming.bind("example", make_ref("new"))
        assert naming.resolve("example").object_key == "new"

    def test_rebind_binds_fresh_names_too(self, naming):
        # rebind is bind-or-replace: it does not require an existing
        # registration.
        naming.rebind("example", make_ref("a"))
        assert naming.resolve("example").object_key == "a"

    def test_ambiguity_clears_when_one_host_unbinds(self, naming):
        naming.bind("example", make_ref("a"), host="host1")
        naming.bind("example", make_ref("b"), host="host2")
        with pytest.raises(NamingError, match="several hosts"):
            naming.resolve("example")
        naming.unbind("example", host="host2")
        assert naming.resolve("example").object_key == "a"

    def test_empty_name_rejected(self, naming):
        with pytest.raises(NamingError, match="empty"):
            naming.bind("", make_ref())
        with pytest.raises(NamingError, match="empty"):
            naming.rebind("", make_ref())

    def test_names_listing(self, naming):
        naming.bind("b", make_ref())
        naming.bind("a", make_ref(), host="h")
        assert naming.names() == [("a", "h"), ("b", "")]
