import heckeweights
from heckeweights import combinatorics, reps, traces

# Public names deleted from the package, and the module that defined each;
# HeckeElement stays in reps as the type of expand_word's result, unexported.
REMOVED = {"parse_partition": combinatorics, "parse_shape": combinatorics,
           "BoxStat": combinatorics, "box_stat": combinatorics,
           "WeightTable": traces, "HeckeElement": None,
           "DoubleTableau": combinatorics}


def test_package_exports():
    for name in heckeweights.__all__:
        assert getattr(heckeweights, name) is not None, name
    assert len(set(heckeweights.__all__)) == len(heckeweights.__all__)
    for name, module in REMOVED.items():
        assert name not in heckeweights.__all__, name
        if module is not None:
            assert not hasattr(module, name), name
    assert hasattr(reps, "HeckeElement")
