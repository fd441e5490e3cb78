"""Print one sha256 per group of the engine's outputs, so that two checkouts
can be compared byte for byte.

    python3 tools/output_digest.py [--root DIR] [--max-omega N]

DIR is the checkout whose src/plaid is hashed; it defaults to the one this
script lives in.  The explore requests always come from this checkout's
perfbench/workloads.py, so an older checkout is fed the same requests.
Groups:

- suite:NAME    every run_suite record of NAME at omega <= N (default 17);
- golden        suite_golden over tests/golden;
- explore:SEED  every explore CLI request of seeds 1 and 2 (argv, exit code,
                stdout, stderr and output file bytes);
- render        render with all layers on windows spanning 2 x 2 blocks at
                2/5, 4/11 and 10/11, one of them with negative corners,
                each at the default scale and at scale 7;
- render-large  render with all layers on the same kind of windows at 50/51
                and 100/101, each at scales 1 and 7, and one with --palette;
- documents     stats --document over every block (bi, 0) and over the
                --blocks list 1,-1,1,0 (a repeated and a negative block) of
                every even rational at omega <= N, and one all-layer render
                at omega 101 on a window with negative corners crossing four
                blocks;
- centers       tile_of, xi and xi_hat of every center class at omega <= 15;
- columns       center_codes of the base table, the code at every center
                class at a*omega + b, at 16/35, 41/60, 50/51 and 100/101;
- center-cells  center_cell of every center (a, b), a < omega^2, on the
                rows b in {-1, 0, 1, 2} of both sheets at 16/35, 50/51 and
                100/101;
- cover-columns the cover table's code at the cover cell of every center
                a < omega^2, b < omega, in the order a*omega + b, at 16/35
                and 50/51.  By the lift law this is the base code, reversed
                where the cell is on the outer half; criterion 6 checks the
                law and reads its codes from the middle half, the base table;
- pet-large     the pet-equivalence records at 50/51, 41/60 and 100/101;
- mesh-large    the check_mesh records at 50/51, at 41/60, and for the
                list 3/8, 4/11, 50/51;
- mesh-faults   the failing path of the mesh equations: pet._mesh_failures
                and its _worst on the cover table with one code changed (a
                connector reversed, a hold given the code 1) at every cell
                of 2/5 and every 41st cell of 4/11, and on the fiber_shifts
                rows of 2/5 with one row's c1 or c2 turn off by one;
- blocks        hl in row order, vl in column order, masks() and the
                traced polygons of blocks (bi, 0) and (bi, 1) of every even
                rational at omega <= N;
- blocks-large  hl in row order, vl in column order and masks() of every
                block (bi, 0) at 50/51, 41/60 and 100/101, and of blocks 0,
                1, 100 and 200 at 100/201;
- lights        light_points_on_line of every H and V line within one of
                blocks (bi, bj), bi in {0, 1, omega-1} and bj in {0, 1}, at
                omega <= N;
- cells         cell_code of every cover cell at omega <= 15;
- irrational    irrational --tiles on a 24 x 24 window at the explore
                windows' P and criterion 12's P, the BadOffset documents
                of the zero offset there with a suggestion and without one
                (--eps 1/2), and suite_irrational;
- empty         the empty_rectangles record of blocks (bi, 0) and (bi, 1) of
                every even rational at omega <= N, for every even K;
- particles     (squares, types, light) of every particle of every even
                rational at omega <= N, from its walk (_h_walk, _v_walk)
                read on its line by _read_light, and the instances of
                horizontal_particle and vertical_particle on the lines 0, 1
                and omega-1;
- particles-large the particle-geometry records at 50/51, 41/60, 100/101
                and 200/201.

Standard library only.  Run it on two checkouts and diff the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALL_LAYERS = "grid-lines,light-points,connectors,polygons,orientation-arrows"
RENDER_PARAMS = ((2, 5), (4, 11), (10, 11))
EXPLORE_SEEDS = (1, 2)
EXPLORE_SECONDS = 8.0
CENTER_OMEGA = 15
CRITERION_12_PS = ("8/21", "34/89", "144/377")
IRRATIONAL_OFFSET = "1/1048583,1/1048609,1/1048613"
IRRATIONAL_WINDOW = "0,0,24,24"
LARGE_RENDER_PARAMS = ((50, 51), (100, 101))
LARGE_RENDER_PALETTE = "connectors=#0a0,orientation-arrows=teal,Q=black"
DOCUMENT_BLOCKS = "1,-1,1,0"
DOCUMENT_WINDOW = "-6,-5,7,8"
# (p, q) and its blocks (bi, 0), None for all of them
LARGE_BLOCKS = (((50, 51), None), ((41, 60), None), ((100, 101), None),
                ((100, 201), (0, 1, 100, 200)))
COLUMN_PARAMS = ((16, 35), (41, 60), (50, 51), (100, 101))
CELL_PARAMS = ((16, 35), (50, 51), (100, 101))
COVER_COLUMN_PARAMS = ((16, 35), (50, 51))
PET_PARAMS = ((50, 51), (41, 60), (100, 101))
PARTICLE_PARAMS = ((50, 51), (41, 60), (100, 101), (200, 201))
# one check_mesh call per entry
MESH_LISTS = (((50, 51),), ((41, 60),), ((3, 8), (4, 11), (50, 51)))
# (p, q) and the stride of the cells given a planted code
MESH_FAULTS = (((2, 5), 1), ((4, 11), 41))


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
        h.update(b"\0")
    return h.hexdigest()


def _cli_run(cli, argv, outdir, i):
    """argv, exit code, stdout, stderr and the --out file of one request."""
    path = os.path.join(outdir, f"{i}.out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", path])
        except SystemExit as exc:
            code = exc.code
    data = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
    return [tuple(argv), code, out.getvalue(), err.getvalue(), data]


def _edge_orders(BlockGrid, make_param):
    """A function of a BlockGrid giving its hl in row order, edge (n, m) at
    m*omega + n, and its vl in column order, edge (n, m) at n*omega + m,
    from any layout a checkout kept: each array either that way or with
    line k at a[k::omega+1].  One probe reads both layouts off masks()[0],
    square (0, 0)'s mask, with one count planted at byte 1 of each array:
    hl byte 1 is its N edge (0, 1) when line k is hl[k::omega+1] (bit 1),
    and vl byte 1 its E edge (1, 0) when line k is vl[k::omega+1] (bit 4);
    read the other way they are edges (1, 0) and (0, 1), off that square."""
    probe = BlockGrid(make_param(1, 2), 0)
    probe.hl[:], probe.vl[:] = bytes(len(probe.hl)), bytes(len(probe.vl))
    probe.hl[1] = probe.vl[1] = 1
    mask = probe.masks()[0]

    def lines(a, strided, w):
        if not strided:
            return bytes(a)
        return b"".join(a[k::w + 1] for k in range(w + 1))

    return lambda grid: (lines(grid.hl, mask & 1, grid.param.omega),
                         lines(grid.vl, mask & 4, grid.param.omega))


def _render_windows(w: int):
    """Windows straddling a block corner, so each spans 2 x 2 blocks; the
    last has negative corners."""
    return ((w - 3, w - 3, w + 3, w + 3),
            (3 * w - 2, 2 * w - 4, 3 * w + 4, 2 * w + 2),
            (-4, -w - 3, 3, -w + 2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=HERE)
    ap.add_argument("--max-omega", type=int, default=17)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(os.path.abspath(args.root), "src"),
                    os.path.join(HERE, "perfbench")]
    from fractions import Fraction

    from plaid import analysis, cli, classifier, pet, verify
    from plaid.grid import (BlockGrid, GridLine, _h_walk, _read_light,
                            _v_walk, horizontal_particle, light_lists,
                            light_points_on_line, trace_polygons,
                            vertical_particle)
    from plaid.params import even_rationals, make_param
    import workloads

    edge_orders = _edge_orders(BlockGrid, make_param)
    for name in verify.SUITES:
        records = verify.run_suite(name, max_omega=args.max_omega)
        print(f"suite:{name:<18} {_digest(records)}")
    golden = verify.suite_golden(os.path.join(HERE, "tests", "golden"))
    print(f"{'golden':<24} {_digest(golden)}")
    with tempfile.TemporaryDirectory() as outdir:
        for seed in EXPLORE_SEEDS:
            ops = workloads.explore_ops(seed, EXPLORE_SECONDS)
            runs = [_cli_run(cli, op.argv, outdir, i)
                    for i, op in enumerate(ops)]
            print(f"{f'explore:{seed}':<24} {_digest(runs)}"
                  f"  ({len(runs)} requests)")
        # "--window=" since argparse reads "-4,..." as an option
        runs = [_cli_run(cli, ["render", "--p", str(p), "--q", str(q),
                               "--window=" + ",".join(map(str, win)),
                               "--layers", ALL_LAYERS, *scale], outdir, 0)
                for p, q in RENDER_PARAMS for win in _render_windows(p + q)
                for scale in ([], ["--scale", "7"])]
        print(f"{'render':<24} {_digest(runs)}")
        renders = [["render", "--p", str(p), "--q", str(q),
                    "--window=" + ",".join(map(str, win)),
                    "--layers", ALL_LAYERS, "--scale", scale]
                   for p, q in LARGE_RENDER_PARAMS
                   for win in _render_windows(p + q) for scale in ("1", "7")]
        renders.append(renders[-1] + ["--palette", LARGE_RENDER_PALETTE])
        runs = [_cli_run(cli, argv, outdir, 0) for argv in renders]
        print(f"{'render-large':<24} {_digest(runs)}  ({len(runs)} requests)")
        runs = []
        for param in even_rationals(args.max_omega):
            pq = ["--p", str(param.p), "--q", str(param.q)]
            for blocks in ([], ["--blocks=" + DOCUMENT_BLOCKS]):
                runs.append(_cli_run(cli, ["stats", "--document", *pq,
                                           *blocks], outdir, 0))
        runs.append(_cli_run(cli, ["render", "--p", "50", "--q", "51",
                                   "--window=" + DOCUMENT_WINDOW,
                                   "--layers", ALL_LAYERS], outdir, 0))
        print(f"{'documents':<24} {_digest(runs)}  ({len(runs)} requests)")
        runs = []
        for P in dict.fromkeys(workloads.IRRATIONAL_P + CRITERION_12_PS):
            argv = ["irrational", "--P", P, "--window", IRRATIONAL_WINDOW]
            for extra in (["--offset", IRRATIONAL_OFFSET, "--tiles"],
                          ["--offset", "0,0,0"],
                          ["--offset", "0,0,0", "--eps", "1/2"]):
                runs.append(_cli_run(cli, argv + extra, outdir, 0))
        runs.append(verify.suite_irrational())
        print(f"{'irrational':<24} {_digest(runs)}  ({len(runs) - 1} requests)")
    rows = []
    for param in even_rationals(CENTER_OMEGA):
        w = param.omega
        for a in range(w * w):
            for b in range(w):
                c = (Fraction(2 * a + 1, 2), Fraction(2 * b + 1, 2))
                rows.append((classifier.tile_of(param, c),
                             classifier.xi(param, c), pet.xi_hat(param, c)))
    print(f"{'centers':<24} {_digest(rows)}")
    rows = []
    for pq in COLUMN_PARAMS:
        param = make_param(*pq)
        table = classifier.label_table(param)
        rows.append(bytes(classifier.center_codes(param, table)))
    print(f"{'columns':<24} {_digest(rows)}")
    rows = []
    for pq in CELL_PARAMS:
        param = make_param(*pq)
        for b in (-1, 0, 1, 2):
            for sheets in (1, 2):
                rows.append([classifier.center_cell(param, a, b, sheets)
                             for a in range(param.omega ** 2)])
    print(f"{'center-cells':<24} {_digest(rows)}")
    rows = []
    for pq in COVER_COLUMN_PARAMS:
        param = make_param(*pq)
        table, w = classifier.label_table(param, 2), param.omega
        rows.append(bytes(table[classifier.center_cell(param, a, b, 2)]
                          for a in range(w * w) for b in range(w)))
    print(f"{'cover-columns':<24} {_digest(rows)}")
    rows = [verify.suite_pet_equivalence(make_param(*pq)) for pq in PET_PARAMS]
    print(f"{'pet-large':<24} {_digest(rows)}")
    rows = [pet.check_mesh([make_param(*pq) for pq in pqs])
            for pqs in MESH_LISTS]
    print(f"{'mesh-large':<24} {_digest(rows)}")
    rows = []
    for pq, stride in MESH_FAULTS:
        param = make_param(*pq)
        clean = classifier.label_table(param, 2)
        shifts = pet.fiber_shifts(param, pet.cover_step)
        for cell in range(0, len(clean), stride):
            cover = bytearray(clean)
            code = cover[cell]
            cover[cell] = classifier.REVERSED[code] if code % 5 else 1
            rows.append(pet._mesh_failures(param, cover, shifts))
    param = make_param(*MESH_FAULTS[0][0])
    w, clean = param.omega, classifier.label_table(param, 2)
    real = pet.fiber_shifts(param, pet.cover_step)
    for row in range(8 * w):
        for c1, c2 in ((1, 0), (0, 1)):
            shifts, (J, C1, old) = list(real), real[row]
            shifts[row] = (J, (C1 + c1 * w) % (w * w), (old + c2) % w)
            rows.append(pet._mesh_failures(param, clean, shifts))
    rows = [(failures, pet._worst(failures)) for failures in rows]
    print(f"{'mesh-faults':<24} {_digest(rows)}  ({len(rows)} covers and shifts)")
    rows = []
    for param in even_rationals(args.max_omega):
        for bi in range(param.omega):
            grid = BlockGrid(param, bi)
            rows += [*edge_orders(grid), bytes(grid.masks()),
                     trace_polygons(param, (bi, 0), grid),
                     trace_polygons(param, (bi, 1))]
    print(f"{'blocks':<24} {_digest(rows)}")
    rows = []
    for pq, blocks in LARGE_BLOCKS:
        param = make_param(*pq)
        for bi in range(param.omega) if blocks is None else blocks:
            grid = BlockGrid(param, bi)
            rows += [*edge_orders(grid), grid.masks()]
    print(f"{'blocks-large':<24} {_digest(rows)}")
    rows = []
    for param in even_rationals(args.max_omega):
        w = param.omega
        for bi in (0, 1, w - 1):
            for bj in (0, 1):
                for family, lo in (("H", bj * w), ("V", bi * w)):
                    rows += [light_points_on_line(param, GridLine(family, c),
                                                  (bi, bj))
                             for c in range(lo - 1, lo + w + 2)]
    print(f"{'lights':<24} {_digest(rows)}")
    rows = [bytes(classifier.cell_code(param, cell)
                  for cell in range(2 * param.omega ** 3))
            for param in even_rationals(CENTER_OMEGA)]
    print(f"{'cells':<24} {_digest(rows)}")
    rows = []
    for param in even_rationals(args.max_omega):
        for block in [(bi, bj) for bi in range(param.omega) for bj in (0, 1)]:
            rows += [analysis.empty_rectangles(param, block, K)
                     for K in range(0, param.omega, 2)]
    print(f"{'empty':<24} {_digest(rows)}")
    rows = []
    for param in even_rationals(args.max_omega):
        w = param.omega
        for c, lit in enumerate(map(set, light_lists(param))):
            for j0 in range(w):
                walks = [("h", _h_walk(param, j0, c))]
                walks += [(ty, _v_walk(param, c, ty, j0)) for ty in "PQ"]
                lights = _read_light(param, lit, c, walks)
                rows += [(walk[0], walk[1], light)
                         for (_, walk), light in zip(walks, lights)]
                if c in (0, 1, w - 1):
                    rows.append(horizontal_particle(param, c, j0).instances)
                    rows += [vertical_particle(param, c, ty, j0).instances
                             for ty in "PQ"]
    print(f"{'particles':<24} {_digest(rows)}")
    rows = verify.run_suite("particle-geometry",
                            params=[make_param(*pq) for pq in PARTICLE_PARAMS])
    print(f"{'particles-large':<24} {_digest(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
