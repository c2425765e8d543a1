"""Golden (fault-free) reference simulation.

Zero-delay, cycle-based, two-valued logic: within a cycle every net settles
to the boolean function of the current primary inputs and flop states; at
the clock edge every flop captures the settled value of its data net.  The
resulting Trace is the baseline every injected sample is compared against,
so it stores every net's settled value in every cycle, one bit per cycle.
The simulator packs up to 64 cycles into each pass over the gates; a small
sequential circuit starts each block from the flop values its state table
predicts, so feedback does not cost one pass per cycle.

Stimulus file format (one of):

    random <cycles> <seed>

or one line per cycle of 0/1 characters, one column per primary input in
declaration order, e.g. ``01101`` for a 5-input circuit.
"""

import random
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .errors import InvariantError, StimulusError


_TOP_BIT = bytes(b >> 7 for b in range(256))


@dataclass(frozen=True)
class Stimulus:
    """Input schedule for a golden run.

    ``mode`` is "explicit" (vectors given) or "random" (vectors derived
    deterministically from ``rng_seed``).  A random vector's bits, cycle by
    cycle in input order, are the top bits of the successive 32-bit words of
    ``random.Random(rng_seed)``, as ``getrandbits(1)`` gives them.
    ``initial_state`` optionally fixes the per-flop starting bits in circuit
    flop order; the default is all zeros.
    """

    mode: str
    cycle_count: int
    vectors: tuple = None
    rng_seed: int = None
    initial_state: tuple = None

    def __post_init__(self):
        if self.mode not in ("explicit", "random"):
            raise StimulusError(f"unknown stimulus mode '{self.mode}'")
        if self.cycle_count < 3:
            raise StimulusError(
                f"need at least 3 cycles for the two observation edges, "
                f"got {self.cycle_count}")
        if self.mode == "explicit" and self.vectors is None:
            raise StimulusError("explicit stimulus requires vectors")
        if self.mode == "random" and self.rng_seed is None:
            raise StimulusError("random stimulus requires a seed")

    @classmethod
    def explicit(cls, vectors, initial_state=None):
        vecs = tuple(tuple(int(b) for b in v) for v in vectors)
        return cls(mode="explicit", cycle_count=len(vecs), vectors=vecs,
                   initial_state=initial_state)

    @classmethod
    def random(cls, cycles, seed, initial_state=None):
        return cls(mode="random", cycle_count=int(cycles), rng_seed=int(seed),
                   initial_state=initial_state)

    def resolve_vectors(self, n_inputs):
        """Concrete per-cycle input tuples for a circuit with n_inputs PIs."""
        if self.mode == "explicit":
            for i, v in enumerate(self.vectors):
                if len(v) != n_inputs:
                    raise StimulusError(
                        f"cycle {i}: vector has {len(v)} bits, circuit has "
                        f"{n_inputs} primary inputs")
                if any(b not in (0, 1) for b in v):
                    raise StimulusError(f"cycle {i}: vector bits must be 0/1")
            return self.vectors
        # getrandbits(32 * n) fills its result with n 32-bit words, least
        # significant first; byte 3 of each little-endian word is its top byte
        if not n_inputs:
            return ((),) * self.cycle_count
        n = n_inputs * self.cycle_count
        bits = (random.Random(self.rng_seed).getrandbits(32 * n)
                .to_bytes(4 * n, "little")[3::4].translate(_TOP_BIT))
        return tuple(zip(*[iter(bits)] * n_inputs))  # n_inputs bits a cycle


def parse_stimulus(text):
    """Parse the stimulus file format described in the module docstring."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise StimulusError("empty stimulus")
    first = lines[0].split()
    if first[0] == "random":
        if len(lines) != 1 or len(first) != 3:
            raise StimulusError("random directive must be the only line: "
                                "'random <cycles> <seed>'")
        try:
            cycles, seed = int(first[1]), int(first[2])
        except ValueError:
            raise StimulusError(
                "random directive needs integer cycles and seed") from None
        return Stimulus.random(cycles, seed)
    vectors = []
    for i, line in enumerate(lines):
        if any(ch not in "01" for ch in line):
            raise StimulusError(f"line {i + 1}: expected only 0/1 characters")
        vectors.append(tuple(int(ch) for ch in line))
    return Stimulus.explicit(vectors)


@dataclass(frozen=True)
class Trace:
    """Golden simulation result.

    Bit ``c`` of ``net_masks[net]`` is the value of ``net`` during cycle
    ``c``, for every net of the circuit.  A flop's state during cycle ``c``
    (captured at the edge that started the cycle) is bit ``c`` of its
    output net's mask.
    """

    cycle_count: int
    flop_ids: tuple
    net_masks: dict

    def net_value(self, cycle, net):
        return self.net_masks[net] >> cycle & 1

    def to_csv(self):
        columns = [_column(self.net_masks[fid], self.cycle_count)
                   for fid in self.flop_ids]
        lines = ["cycle,flop,bit"]
        for c, row in enumerate(zip(*columns)):
            for fid, bit in zip(self.flop_ids, row):
                lines.append(f"{c},{fid},{bit}")
        return "\n".join(lines) + "\n"


# Cycles evaluated together in one packed pass.  A fixed width keeps the
# flop fixed-point iteration linear in trace length: a feedback circuit too
# wide for a state table needs up to one pass per cycle of its block, on ints
# of at most this many bits.
_BLOCK = 64

# A state table (``_step_table``) holds one byte per (state, inputs)
# combination, so it is built only for circuits with at most 8 flops, 8
# inputs and 10 of the two together.
_TABLE_FLOPS, _TABLE_INPUTS, _TABLE_VARS = 8, 8, 10

# Packed opcode per kind: bits 1-2 pick the fold (0 AND, 1 OR, 2 or 3 XOR)
# and bit 0 inverts the result.  NOT and BUF fold XOR over their one input.
_OPCODE = {"AND": 0, "NAND": 1, "OR": 2, "NOR": 3,
           "XOR": 4, "XNOR": 5, "BUF": 6, "NOT": 7}
_ID, _DATA = attrgetter("id"), attrgetter("data")
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_ASCII = bytes.maketrans(b"\x00\x01", b"01")
# byte value -> ASCII "0" or "1" for its bit f, for f in 0..7
_BIT_ASCII = tuple(bytes(48 + (v >> f & 1) for v in range(256))
                   for f in range(8))


def _column(mask, n):
    """``n`` bytes, byte c holding bit c of ``mask``."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_ASCII_BITS)


def _evaluate(program, values, full):
    """One pass over the gates in topological order on packed values, each
    an int of the bits that ``full`` covers."""
    for op, out, ins in program:
        if op < 2:
            v = full
            for i in ins:
                v &= values[i]
        elif op < 4:
            v = 0
            for i in ins:
                v |= values[i]
        else:
            v = 0
            for i in ins:
                v ^= values[i]
        values[out] = v ^ full if op & 1 else v


def _step_table(program, n_slots, pi_slots, flop_slots, data_slots):
    """The next state of every (state, inputs) combination, or ``b""`` for a
    circuit too wide for one.

    Byte ``s | i << F`` (F flops) is the state after a cycle that starts in
    state ``s`` (bit f: flop f) with input bits ``i`` (bit j: input j).  One
    pass over the gates on ints of one bit per combination evaluates them
    all.
    """
    n_flops, n_inputs = len(flop_slots), len(pi_slots)
    k = n_flops + n_inputs
    if (not 0 < n_flops <= _TABLE_FLOPS or n_inputs > _TABLE_INPUTS
            or k > _TABLE_VARS):
        return b""
    n = 1 << k
    full = (1 << n) - 1
    values = [0] * n_slots
    # variable j is set in the combinations whose bit j is 1
    for j, slot in enumerate((*flop_slots, *pi_slots)):
        half = 1 << j
        values[slot] = ((1 << half) - 1 << half) * (full // ((1 << 2 * half) - 1))
    _evaluate(program, values, full)
    table = 0
    for f, d in enumerate(data_slots):
        table |= int.from_bytes(_column(values[d], n), "little") << f
    return table.to_bytes(n, "little")


def _walk(table, entry, inputs, n_flops):
    """Flop masks of a block from ``_step_table``'s table: ``entry`` holds
    the flop bits the block starts in, byte c of ``inputs`` the input bits
    of its cycle c."""
    s = sum(b << f for f, b in enumerate(entry))
    states = bytearray(len(inputs))
    for c, i in enumerate(inputs):
        states[c] = s
        s = table[s | i << n_flops]
    return [int(states.translate(_BIT_ASCII[f])[::-1], 2)
            for f in range(n_flops)]


def simulate_reference(circuit, stimulus):
    """Run the fault-free simulation and return the full Trace.

    Cycles are evaluated in blocks of up to ``_BLOCK``, each net's values
    in a block packed into one int whose bit c is its value in the block's
    cycle c.  A flop's block mask is its entry bit followed by its data
    mask shifted one cycle later; passes over the gates repeat from the
    entry state until those masks stop changing, and after pass p the
    block's cycles 0..p are exact.  From any starting masks the passes
    reach the same fixed point, so a circuit small enough for a state table
    starts each block from the masks a walk through the table predicts: a
    feedback loop then settles in one pass instead of one per cycle.
    """
    vectors = stimulus.resolve_vectors(len(circuit.primary_inputs))
    n_flops = len(circuit.flops)
    if stimulus.initial_state is None:
        state = [0] * n_flops
    else:
        state = [int(b) for b in stimulus.initial_state]
        if len(state) != n_flops:
            raise StimulusError(
                f"initial state has {len(state)} bits, circuit has "
                f"{n_flops} flops")
        if any(b not in (0, 1) for b in state):
            raise StimulusError("initial state bits must be 0/1")

    gate_by_id, flops = circuit.gate_by_id, circuit.flops
    flop_ids = tuple(map(_ID, flops))
    net_ids = (*circuit.primary_inputs, *flop_ids, *map(_ID, circuit.gates))
    index = dict(zip(net_ids, range(len(net_ids))))
    slot = index.__getitem__
    program = []
    for gid in circuit.gate_order:
        g = gate_by_id[gid]
        op = _OPCODE.get(g.kind)
        if op is None:
            raise InvariantError(f"cannot evaluate gate kind '{g.kind}'")
        inputs = g.inputs[:1] if op >= 6 else g.inputs
        program.append((op, index[gid], tuple(map(slot, inputs))))
    pi_slots = list(map(slot, circuit.primary_inputs))
    flop_slots = list(map(slot, flop_ids))
    data_slots = list(map(slot, map(_DATA, flops)))

    cycles = len(vectors)
    # one byte per bit, last cycle first: input i's bits are every n-th byte
    n_pi = len(pi_slots)
    flat = bytes(chain.from_iterable(reversed(vectors)))
    pi_masks = [int(flat[i::n_pi].translate(_BITS_ASCII), 2)
                for i in range(n_pi)]
    values = [0] * len(net_ids)
    net_masks = [0] * len(net_ids)
    table = _step_table(program, len(net_ids), pi_slots, flop_slots,
                        data_slots)
    for c0 in range(0, cycles, _BLOCK):
        width = min(_BLOCK, cycles - c0)
        full = (1 << width) - 1
        block_inputs = [(mask >> c0) & full for mask in pi_masks]
        for slot, mask in zip(pi_slots, block_inputs):
            values[slot] = mask
        held = state
        if table:
            inputs = sum(int.from_bytes(_column(mask, width), "little") << j
                         for j, mask in enumerate(block_inputs))
            held = _walk(table, state, inputs.to_bytes(width, "little"),
                         n_flops)
        while True:
            for slot, bits in zip(flop_slots, held):
                values[slot] = bits
            _evaluate(program, values, full)
            nxt = [((values[d] << 1) & full) | b
                   for d, b in zip(data_slots, state)]
            if nxt == held:
                break
            held = nxt
        net_masks = [m | v << c0 for m, v in zip(net_masks, values)]
        state = [(values[d] >> (width - 1)) & 1 for d in data_slots]

    return Trace(cycle_count=cycles, flop_ids=flop_ids,
                 net_masks=dict(zip(net_ids, net_masks)))
