"""Fixture: a bare group bind (PD213); any policy, however set, is clean."""

from repro.ft.policy import FtPolicy

FAIL_FAST = FtPolicy(deadline_ms=500.0)


def main(proxy_cls, runtime):
    bare = proxy_cls._group_bind("workers", runtime)
    named = proxy_cls._group_bind(
        "workers", runtime, ft_policy=FAIL_FAST
    )
    inline = proxy_cls._group_bind(
        "workers", runtime, ft_policy=FtPolicy(max_retries=0)
    )
    return bare, named, inline
