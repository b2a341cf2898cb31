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
# the same per connected 8-point circle (SURGERY_N8), classes numbered in
# the order of their first point
STRANDS_DIMS_GENUS2 = {
    (1, 2, 1, 2, 3, 4, 3, 4): {-2: 1, -1: 32, 0: 238, 1: 368, 2: 49},
    (1, 2, 1, 3, 2, 4, 3, 4): {-2: 1, -1: 32, 0: 245, 1: 424, 2: 81},
    (1, 2, 1, 3, 4, 2, 3, 4): {-2: 1, -1: 32, 0: 254, 1: 496, 2: 129},
    (1, 2, 1, 3, 4, 3, 2, 4): {-2: 1, -1: 32, 0: 257, 1: 520, 2: 145},
    (1, 2, 1, 3, 4, 3, 4, 2): {-2: 1, -1: 32, 0: 262, 1: 560, 2: 177},
    (1, 2, 3, 1, 2, 4, 3, 4): {-2: 1, -1: 32, 0: 254, 1: 496, 2: 129},
    (1, 2, 3, 1, 4, 2, 4, 3): {-2: 1, -1: 32, 0: 266, 1: 592, 2: 217},
    (1, 2, 3, 1, 3, 4, 2, 4): {-2: 1, -1: 32, 0: 257, 1: 520, 2: 145},
    (1, 2, 3, 1, 4, 3, 4, 2): {-2: 1, -1: 32, 0: 269, 1: 616, 2: 233},
    (1, 2, 3, 4, 1, 2, 3, 4): {-2: 1, -1: 32, 0: 274, 1: 656, 2: 277},
    (1, 2, 3, 4, 1, 4, 2, 3): {-2: 1, -1: 32, 0: 278, 1: 688, 2: 305},
    (1, 2, 3, 4, 1, 3, 4, 2): {-2: 1, -1: 32, 0: 278, 1: 688, 2: 305},
    (1, 2, 3, 2, 4, 1, 3, 4): {-2: 1, -1: 32, 0: 266, 1: 592, 2: 217},
    (1, 2, 3, 2, 4, 1, 4, 3): {-2: 1, -1: 32, 0: 269, 1: 616, 2: 241},
    (1, 2, 3, 4, 3, 1, 2, 4): {-2: 1, -1: 32, 0: 278, 1: 688, 2: 305},
    (1, 2, 3, 4, 3, 1, 4, 2): {-2: 1, -1: 32, 0: 281, 1: 712, 2: 329},
    (1, 2, 3, 2, 3, 4, 1, 4): {-2: 1, -1: 32, 0: 262, 1: 560, 2: 177},
    (1, 2, 3, 2, 4, 3, 1, 4): {-2: 1, -1: 32, 0: 269, 1: 616, 2: 233},
    (1, 2, 3, 4, 2, 3, 1, 4): {-2: 1, -1: 32, 0: 278, 1: 688, 2: 305},
    (1, 2, 3, 4, 2, 4, 1, 3): {-2: 1, -1: 32, 0: 281, 1: 712, 2: 329},
    (1, 2, 3, 4, 3, 4, 1, 2): {-2: 1, -1: 32, 0: 286, 1: 752, 2: 369},
}

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
