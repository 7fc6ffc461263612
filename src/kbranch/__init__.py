"""Exact K-type branching tables for standard representations of real
reductive groups, with desk-scale numerical index verification."""

from .branching import (InvalidParamsError, KTypeTable, TemperedParams,
                        hm_virtual_character, ktype_multiplicity, ktype_table,
                        nu_independence_check, sign_factor, validate_params)
from .characters import (ConeError, CutoffError, FormalCharacter, HMLattice,
                         LatticeError, Weight, ZCharTable, char_mul, dot,
                         geometric_series, graded_exterior, kostant_partition,
                         pairing, weight)
from .groups import (GroupDataError, RealGroupData, RootSystem, WeylElement,
                     builtin_group, builtin_group_names, load_group_data,
                     weyl_group)
from .ktypes import (KType, enumerate_ktypes, restrict_to_hm,
                     weight_multiplicities, weyl_dimension)
from .oscillator import (GridSpec, InconclusiveKernelError, KernelReport,
                         cylinder_sl2, oscillator_1d, oscillator_nd)
from .sl2_oracles import MatchReport, SL2Series, oracle_match, sl2_branching

__version__ = "0.1.0"
