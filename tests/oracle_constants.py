"""Frozen outputs of the independent oracle scripts under scripts/.

These values were computed by standalone code written before the package
and are asserted against, never regenerated from, the library.
"""

# scripts/oracle_surgery.py: matchings of n points whose surgery is connected
SURGERY_N4 = {"total": 3, "connected": 1, "histogram": {1: 1, 3: 2}}
SURGERY_N8 = {"total": 105, "connected": 21, "histogram": {1: 21, 3: 70, 5: 14}}
SURGERY_EXAMPLES = {
    (1, 2, 1, 2): 1,
    (1, 1, 2, 2): 3,
    (1, 2, 2, 1): 3,
}

# scripts/oracle_strands_dims.py: basis dimension per strands grading
STRANDS_DIMS_GENUS1 = {-1: 1, 0: 8, 1: 7}
STRANDS_DIMS_GENUS2_SPLIT = {-2: 1, -1: 32, 0: 238, 1: 368, 2: 49}
# genus2_split # genus1, the 12-point circle
STRANDS_DIMS_GENUS3_SPLIT = {-3: 1, -2: 72, -1: 1589, 0: 12448, 1: 30451,
                             2: 14744, 3: 343}

# hand-checked trefoil data: (grading, left split idempotent, right split)
TREFOIL_TABLE = {
    "ae": (1, (2,), (1,)),
    "af": (1, (2,), (2,)),
    "bf": (1, (1, 2), ()),
    "bg": (0, (2,), (1,)),
    "ce": (1, (1,), (1,)),
    "cf": (1, (1,), (2,)),
    "cg": (1, (), (1, 2)),
}

# the worked Plucker point, as (left subset, right subset) -> coefficient
TREFOIL_PLUCKER = {
    ((1, 2), ()): -1,
    ((1,), (1,)): -1,
    ((1,), (2,)): -1,
    ((2,), (2,)): -1,
    ((), (1, 2)): -1,
}

TREFOIL_MATRIX_BLOCKS = {0: [[-1]], 1: [[0, -1], [1, -1]], 2: [[-1]]}
TREFOIL_ALEXANDER = {-1: 1, 0: -1, 1: 1}
TREFOIL_OMEGA = ((0, 1), (-1, 0))
TREFOIL_SEIFERT = ((-1, -1), (0, -1))
TREFOIL_KERNEL_ROWS = ((-1, -1, 1, 0), (-1, 0, 0, -1))
