"""§2.2's client-side out-value initialization: "An 'out' argument
should be initialized by a distribution template before calling the
operation which returns it; otherwise a uniform blockwise distribution
will be assumed.  The distribution of return values is always assumed
to be blockwise [by default]."""

import numpy as np
import pytest

from repro.dist import Proportions

TRANSFERS = ["centralized", "multiport"]


def serve(orb, servant_class, nthreads=3):
    return orb.serve("example", lambda ctx: servant_class(), nthreads)


@pytest.mark.parametrize("transfer", TRANSFERS)
class TestOutTemplates:
    def test_default_is_blockwise(self, orb, idl, servant_class, transfer):
        serve(orb, servant_class)

        def client(c):
            proxy = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            ramp = proxy.make_ramp(10)
            return ramp.layout.local_lengths()

        assert orb.run_spmd_client(2, client) == [(5, 5)] * 2

    def test_return_value_template(self, orb, idl, servant_class, transfer):
        serve(orb, servant_class)

        def client(c):
            proxy = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            proxy.set_out_template(
                "make_ramp", "__return__", Proportions(1, 3)
            )
            ramp = proxy.make_ramp(12)
            np.testing.assert_array_equal(ramp.allgather(), np.arange(12.0))
            return ramp.layout.local_lengths()

        assert orb.run_spmd_client(2, client) == [(3, 9)] * 2

    def test_a_spec_tuple_may_hold_its_weights_in_a_list(
        self, orb, idl, servant_class, transfer
    ):
        serve(orb, servant_class)

        def client(c):
            proxy = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            proxy.set_out_template(
                "make_ramp", "__return__", ("proportions", [1, 3])
            )
            return proxy.make_ramp(12).layout.local_lengths()

        assert orb.run_spmd_client(2, client) == [(3, 9)] * 2

    def test_out_param_template(self, orb, idl, servant_class, transfer):
        serve(orb, servant_class)

        def client(c):
            proxy = idl.diff_object._spmd_bind(
                "example", c.runtime, transfer=transfer
            )
            proxy.set_out_template("split", "low", Proportions(3, 1))
            data = idl.darray.from_global(np.arange(16.0), comm=c.comm)
            low, pivot = proxy.split(data)
            np.testing.assert_array_equal(low.allgather(), np.arange(8.0))
            return low.layout.local_lengths(), pivot

        assert orb.run_spmd_client(2, client) == [((6, 2), 8.0)] * 2


class TestOutTemplateValidation:
    def test_plain_param_rejected(self, orb, idl, servant_class):
        serve(orb, servant_class, nthreads=1)

        def client(c):
            proxy = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(ValueError, match="not a distributed"):
                proxy.set_out_template("split", "pivot", Proportions(1))
            with pytest.raises(ValueError, match="not a distributed"):
                proxy.set_out_template("split", "nope", Proportions(1))
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_inout_param_rejected(self, orb, idl, servant_class):
        serve(orb, servant_class, nthreads=1)

        def client(c):
            proxy = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(ValueError, match="inout"):
                proxy.set_out_template(
                    "diffusion", "data", Proportions(1)
                )
            return True

        assert all(orb.run_spmd_client(1, client))

    def test_wrong_rank_count_rejected(self, orb, idl, servant_class):
        serve(orb, servant_class, nthreads=1)

        def client(c):
            proxy = idl.diff_object._spmd_bind("example", c.runtime)
            with pytest.raises(ValueError, match="threads"):
                proxy.set_out_template(
                    "make_ramp", "__return__", Proportions(1, 2, 3)
                )
            return True

        assert all(orb.run_spmd_client(2, client))
