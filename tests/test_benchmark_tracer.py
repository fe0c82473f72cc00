"""The benchmark tracer's name contract with the library.

``perfbench/tracer.py`` times the layers by rebinding names in the
modules' ``__dict__`` (the functions ``cli``, ``optimize``, ``keyrate``
and ``purification`` imported, and ``GaussianState.__post_init__``), and
``--trace 1`` raises ``KeyError`` at install if one of them is gone.  A
change that renames or drops such a name fails here.
"""

from perfbench.tracer import SPANS, Tracer


def test_install_rebinds_and_uninstall_restores():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in SPANS]
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
