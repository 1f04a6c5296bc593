#!/usr/bin/env python3
"""Codegen guard for the SIMD register tiles (DESIGN.md §2).

Disassembles the x86-64 kernel objects with objdump, finds every
`simd_microkernel` instantiation's k-loop, and FAILS (nonzero exit) if
that loop holds a shuffle-port op or a stack operand:

  * `vperm*`, `vinsert*`, `vshuf*`, `vunpck*`, `vpbroadcast*`, or a
    `vbroadcast*` from a register — A must reach each FMA as a broadcast
    from memory (a load-port uop), not as a vector load of all MR values
    plus a per-row shuffle;
  * any `%rsp` / `%rbp` operand — the accumulator tile must stay in
    registers across the loop, not spill.

The k-loop is the backward branch whose body [target, branch] holds at
least MR*NV packed FMAs (one k-step of the tile; MR and NV are read off
the template arguments) and no `ret`, and among those the one whose FMAs
write the most distinct registers (the accumulator tile). That tells it
apart from the ragged-tile writeback loop, whose FMAs reuse a couple of
registers, and from jumps back to a shared epilogue.

Usage, after `cmake --build build`:

    python3 tools/check_microkernel_asm.py            # objects under build/
    python3 tools/check_microkernel_asm.py --build-dir other_build
    python3 tools/check_microkernel_asm.py kernels_avx512.cpp.o ...

Only x86-64 objects are checked; the NEON tile's codegen is not covered.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

KERNEL_OBJECTS = ('kernels_avx512.cpp.o', 'kernels_avx2.cpp.o')
FORBIDDEN_PREFIXES = ('vperm', 'vinsert', 'vshuf', 'vunpck', 'vpbroadcast')
STACK_OPERAND = re.compile(r'%[re]?(sp|bp)\b')
FUNC_HEADER = re.compile(r'^[0-9a-f]+ <(.*)>:$')
INSN = re.compile(r'^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$')
BRANCH_TARGET = re.compile(r'^([0-9a-f]+)\s')
PACKED_FMA = re.compile(r'^vfn?m(add|sub)\d+p[sd]$')
TEMPLATE_ARGS = re.compile(r'simd_microkernel<\w+, \d+, (\d+), (\d+)>')


def disassemble(obj):
    """Yields (function name, [(addr, mnemonic, operands), ...])."""
    out = subprocess.run(['objdump', '-d', '-C', '--no-show-raw-insn', obj],
                         check=True, capture_output=True, text=True).stdout
    name, insns = None, []
    for line in out.splitlines():
        m = FUNC_HEADER.match(line)
        if m:
            if name is not None:
                yield name, insns
            name, insns = m.group(1), []
            continue
        m = INSN.match(line)
        if m and name is not None:
            insns.append((int(m.group(1), 16), m.group(2), m.group(3)))
    if name is not None:
        yield name, insns


def tile_fmas(name):
    """MR*NV from `simd_microkernel<T, VL, MR, NV>`."""
    m = TEMPLATE_ARGS.search(name)
    return int(m.group(1)) * int(m.group(2))


def k_loop(insns, min_fmas):
    """(start, end) of the tile's k-loop, or None."""
    best, best_key = None, None
    for addr, mnemonic, operands in insns:
        m = BRANCH_TARGET.match(operands) if mnemonic.startswith('j') else None
        if not m or int(m.group(1), 16) >= addr:
            continue
        target = int(m.group(1), 16)
        body = [(mn, ops) for a, mn, ops in insns if target <= a <= addr]
        fma_dests = [ops.split(',')[-1] for mn, ops in body if PACKED_FMA.match(mn)]
        if any(mn == 'ret' for mn, _ in body) or len(fma_dests) < min_fmas:
            continue
        key = (len(set(fma_dests)), -len(body))
        if best_key is None or key > best_key:
            best, best_key = (target, addr), key
    return best


def offences(insns, loop):
    start, end = loop
    bad = []
    for addr, mnemonic, operands in insns:
        if not start <= addr <= end:
            continue
        if (mnemonic.startswith(FORBIDDEN_PREFIXES) or STACK_OPERAND.search(operands)
                or (mnemonic.startswith('vbroadcast') and operands.startswith('%'))):
            bad.append(f'{addr:x}: {mnemonic} {operands}')
    return bad


def check(obj):
    """Returns the number of failing tiles in one object (printing each)."""
    tiles = [(n, i) for n, i in disassemble(obj) if 'simd_microkernel<' in n]
    if not tiles:
        print(f'FAIL {obj}: no simd_microkernel instantiation found')
        return 1
    failures = 0
    for name, insns in tiles:
        short = name.split('(')[0].replace('atalib::blas::kernels::', '')
        loop = k_loop(insns, tile_fmas(name))
        if loop is None:
            print(f'FAIL {os.path.basename(obj)} {short}: no FMA k-loop found')
            failures += 1
            continue
        bad = offences(insns, loop)
        if bad:
            failures += 1
            print(f'FAIL {os.path.basename(obj)} {short}: {len(bad)} forbidden k-loop insns')
            for b in bad:
                print(f'    {b}')
        else:
            n = sum(1 for i in insns if loop[0] <= i[0] <= loop[1])
            print(f'ok   {os.path.basename(obj)} {short}: k-loop {n} insns, clean')
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('objects', nargs='*',
                    help='kernel object files (default: found under --build-dir)')
    ap.add_argument('--build-dir', default='build')
    args = ap.parse_args()
    objects = args.objects
    if not objects:
        for name in KERNEL_OBJECTS:
            objects += glob.glob(os.path.join(args.build_dir, '**', name), recursive=True)
        if not objects:
            print(f'FAIL: no {" / ".join(KERNEL_OBJECTS)} under {args.build_dir}/')
            return 1
    failures = sum(check(obj) for obj in objects)
    print('microkernel codegen:', 'FAILED' if failures else 'ok')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
