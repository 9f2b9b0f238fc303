#include "workloads/workload.h"

#include <cmath>

#include "ir/parser.h"
#include "support/error.h"
#include "support/rng.h"

namespace ndp::workloads {

namespace {

/**
 * Synthesise a neighbor-list style index array: mostly short-range
 * references around the owning element with an occasional long-range
 * jump, which is how Barnes/FMM/MiniMD neighbor structures behave.
 */
std::vector<std::int64_t>
neighborListIndices(std::int64_t n, std::int64_t reach, double far_fraction,
                Rng &rng)
{
    // Real neighbor structures are power-law-ish: a small set of hub
    // elements (tree cells, shared patches, bonded atoms) is
    // referenced by many owners. Those repeated targets are exactly
    // what NDP turns into L1 hits at the data's home node (Figure 16).
    const std::int64_t hubs = std::max<std::int64_t>(4, n / 64);
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t v;
        if (rng.nextBool(0.35)) {
            v = rng.nextInRange(0, hubs - 1) * (n / hubs);
        } else if (rng.nextBool(far_fraction)) {
            v = rng.nextInRange(0, n - 1);
        } else {
            v = i + rng.nextInRange(-reach, reach);
        }
        v %= n;
        if (v < 0)
            v += n;
        idx[static_cast<std::size_t>(i)] = v;
    }
    return idx;
}

/** Random permutation-ish scatter targets (radix buckets, etc.). */
std::vector<std::int64_t>
scatterIndices(std::int64_t n, std::int64_t buckets, Rng &rng)
{
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        idx[static_cast<std::size_t>(i)] =
            rng.nextInRange(0, buckets - 1);
    return idx;
}

void
installIndex(Workload &w, const std::string &array,
             std::vector<std::int64_t> values)
{
    const ir::ArrayId id = w.arrays.find(array);
    NDP_CHECK(id != ir::kInvalidArray, "missing index array " << array);
    w.arrays.setIndexData(id, std::move(values));
}

void
markMcdram(Workload &w, std::initializer_list<const char *> names)
{
    for (const char *name : names) {
        const ir::ArrayId id = w.arrays.find(name);
        NDP_CHECK(id != ir::kInvalidArray, "missing array " << name);
        w.mcdramArrays.insert(id);
    }
}

std::int64_t
squareSide(std::int64_t scale)
{
    auto side = static_cast<std::int64_t>(
        std::llround(std::sqrt(static_cast<double>(scale))));
    return std::max<std::int64_t>(16, side);
}

} // namespace

WorkloadFactory::WorkloadFactory(std::int64_t scale, std::uint64_t seed)
    : scale_(scale), seed_(seed)
{
    NDP_REQUIRE(scale >= 256, "workload scale too small: " << scale);
}

const std::vector<std::string> &
WorkloadFactory::appNames()
{
    static const std::vector<std::string> names = {
        "barnes", "cholesky", "fft",      "fmm",
        "lu",     "ocean",    "radiosity", "radix",
        "raytrace", "water",  "minimd",   "minixyce",
    };
    return names;
}

std::vector<Workload>
WorkloadFactory::buildAll() const
{
    std::vector<Workload> all;
    all.reserve(appNames().size());
    for (const std::string &name : appNames())
        all.push_back(build(name));
    return all;
}

Workload
WorkloadFactory::build(const std::string &app) const
{
    Workload w;
    w.name = app;
    // The paper's applications stream array-of-structures data
    // (particles, patches, grid cells): model one cache line per
    // element so each iteration touches fresh lines, as their
    // 661MB-3.3GB datasets do.
    w.arrays.setDefaultElementSize(
        static_cast<std::uint32_t>(mem::kLineSize));
    Rng rng(seed_ ^ std::hash<std::string>()(app));
    const std::int64_t n = scale_;
    const std::int64_t side = squareSide(scale_);
    const ir::ParamMap params = {
        {"N", n}, {"M", side}, {"M2", side * 2}};

    if (app == "barnes") {
        // N-body tree walk: long force-accumulation statements with
        // two indirect neighbor loads -> low analyzability, big MSTs.
        w.nests.push_back(ir::parseKernel(R"(
            array PX[N]; array MASS[N]; array AX[N]; array DSQ[N];
            array NB1[N]; array NB2[N];
            for i = 0..N {
              S1: AX[i] = AX[i] + (PX[NB1[i]] - PX[i]) * MASS[NB1[i]]
                          + (PX[NB2[i]] - PX[i]) * MASS[NB2[i]];
              S2: DSQ[i] = (PX[NB1[i]] - PX[i]) * (PX[NB1[i]] - PX[i]);
            })",
                                          "barnes/force", w.arrays,
                                          params));
        w.nests.back().hasTimingLoop = true;
        w.nests.push_back(ir::parseKernel(R"(
            array VX[N]; array DT[N];
            for i = 0..N {
              S1: VX[i] = VX[i] + AX[i] * DT[i];
              S2: PX[i] = PX[i] + VX[i] * DT[i];
            })",
                                          "barnes/update", w.arrays,
                                          params));
        installIndex(w, "NB1", neighborListIndices(n, 32, 0.15, rng));
        installIndex(w, "NB2", neighborListIndices(n, 64, 0.25, rng));
        markMcdram(w, {"PX", "MASS", "AX"});
    } else if (app == "cholesky") {
        // Supernodal factorisation updates over dense 8-byte matrices:
        // A -= L-column * L-row with a small reused panel, then the
        // diagonal scaling. Strong spatial/temporal locality -> small
        // network footprint, hence the paper's modest gains.
        w.arrays.setDefaultElementSize(8);
        w.nests.push_back(ir::parseKernel(R"(
            array A[M2][M2]; array LCOL[M2]; array LROW[M2];
            array DIAG[M2]; array UPD[M2][M2] bytes 64;
            for i = 0..M2 { for j = 0..M2 {
              S1: A[i][j] = A[i][j] - LCOL[i] * LROW[j];
              S2: A[i][j] = A[i][j] / DIAG[i] + UPD[i][j];
            } })",
                                          "cholesky/update", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array SN[M2][M2]; array SCL[M2];
            for i = 0..M2 { for j = 0..M2 {
              S1: SN[i][j] = SN[i][j] * SCL[j];
            } })",
                                          "cholesky/scale", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array GX[M][M] bytes 64; array GL[M][M] bytes 64;
            array GR[M][M] bytes 64;
            for i = 0..M { for j = 0..M {
              S1: GX[i][j] = GX[i][j] - GL[i][j] * GR[j][i];
            } })",
                                          "cholesky/gemm", w.arrays,
                                          params));
        markMcdram(w, {"A", "GX"});
    } else if (app == "fft") {
        // Butterflies: twiddle factors shared between the real and
        // imaginary statements -> strong inter-statement reuse.
        w.nests.push_back(ir::parseKernel(R"(
            array AR[N]; array AI[N]; array BR[N]; array BI[N];
            array WR[N]; array WI[N]; array XR[N]; array XI[N];
            for i = 0..N {
              S1: XR[i] = AR[i] + WR[i] * BR[i] - WI[i] * BI[i];
              S2: XI[i] = AI[i] + WR[i] * BI[i] + WI[i] * BR[i];
            })",
                                          "fft/butterfly", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array SRC[N]; array DST[N]; array REV[N];
            for i = 0..N {
              S1: DST[i] = SRC[REV[i]];
            })",
                                          "fft/bitrev", w.arrays,
                                          params));
                installIndex(w, "REV", neighborListIndices(n, n / 2, 0.9, rng));
        markMcdram(w, {"AR", "AI", "BR", "BI"});
    } else if (app == "fmm") {
        // Multipole interaction lists: three indirect loads per
        // statement over the charge array.
        w.nests.push_back(ir::parseKernel(R"(
            array PHI[N]; array Q[N]; array K1[N]; array K2[N];
            array K3[N]; array IL1[N]; array IL2[N]; array IL3[N];
            for i = 0..N {
              S1: PHI[i] = PHI[i] + Q[IL1[i]] * K1[i]
                           + Q[IL2[i]] * K2[i] + Q[IL3[i]] * K3[i];
            })",
                                          "fmm/interact", w.arrays,
                                          params));
        w.nests.back().hasTimingLoop = true;
        w.nests.push_back(ir::parseKernel(R"(
            array LOC[N]; array UP[N]; array WGT[N];
            for i = 0..N {
              S1: UP[i] = UP[i] + LOC[i] * WGT[i];
            })",
                                          "fmm/upward", w.arrays,
                                          params));
        installIndex(w, "IL1", neighborListIndices(n, 16, 0.1, rng));
        installIndex(w, "IL2", neighborListIndices(n, 48, 0.2, rng));
        installIndex(w, "IL3", neighborListIndices(n, 128, 0.35, rng));
        markMcdram(w, {"PHI", "Q"});
    } else if (app == "lu") {
        // Panel updates over dense 8-byte matrices: A -= row*col, then
        // a pivot division; mul/div heavy, small per-statement
        // footprints thanks to spatial locality.
        w.arrays.setDefaultElementSize(8);
        w.nests.push_back(ir::parseKernel(R"(
            array A[M2][M2]; array ROW[M2]; array COL[M2];
            array PIV[M2]; array SRC[M2][M2] bytes 64;
            for i = 0..M2 { for j = 0..M2 {
              S1: A[i][j] = A[i][j] - ROW[j] * COL[i] + SRC[i][j];
              S2: A[i][j] = A[i][j] / PIV[i];
            } })",
                                          "lu/update", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array PROW[M]; array AP[M][M]; array PSEL[M];
            for i = 0..M {
              S1: PROW[i] = AP[i][PSEL[i]];
            })",
                                          "lu/pivot", w.arrays, params));
        w.nests.push_back(ir::parseKernel(R"(
            array TB[M][M] bytes 64; array TL[M][M] bytes 64;
            array TX[M][M] bytes 64; array TY[M][M] bytes 64;
            for i = 0..M { for j = 0..M {
              S1: TB[i][j] = TB[i][j] - TL[i][j] * TX[j][i]
                             - TY[i][j];
            } })",
                                          "lu/trsm", w.arrays, params));
                installIndex(w, "PSEL", scatterIndices(side, side, rng));
        markMcdram(w, {"A"});
    } else if (app == "ocean") {
        // Red-black relaxation over many distinct field arrays (psi,
        // vorticity, work grids — the real SPLASH-2 ocean touches 6-9
        // arrays per statement): wide operand spread, high gains.
        w.nests.push_back(ir::parseKernel(R"(
            array PSI[M][M]; array PSIM[M][M]; array WRK1[M][M];
            array WRK2[M][M]; array WRK3[M][M]; array WRK4[M][M];
            array GA[M][M]; array GB[M][M];
            for i = 1..M-1 { for j = 1..M-1 {
              S1: GA[i][j] = WRK1[i][j-1] + WRK2[i][j+1] + WRK3[i-1][j]
                             + WRK4[i+1][j] + PSI[i][j] * 0.2
                             + PSIM[i][j];
              S2: GB[i][j] = GA[i][j] - PSI[i][j] + WRK2[i][j+1];
            } })",
                                          "ocean/relax", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array VORT[M][M]; array BIDX[M]; array BVAL[M];
            for i = 0..M {
              S1: VORT[i][BIDX[i]] = BVAL[i];
              S2: VORT[i][0] = VORT[i][0] + BVAL[i];
            })",
                                          "ocean/boundary", w.arrays,
                                          params));
        installIndex(w, "BIDX", scatterIndices(side, side, rng));
        markMcdram(w, {"PSI", "WRK1", "WRK2"});
    } else if (app == "radiosity") {
        // Visibility-weighted energy exchange through two indirect
        // patch references.
        w.nests.push_back(ir::parseKernel(R"(
            array RAD[N]; array RADP[N]; array FF1[N]; array FF2[N];
            array VIS1[N]; array VIS2[N];
            for i = 0..N {
              S1: RAD[i] = RAD[i] + FF1[i] * RADP[VIS1[i]]
                           + FF2[i] * RADP[VIS2[i]];
            })",
                                          "radiosity/gather", w.arrays,
                                          params));
        w.nests.back().hasTimingLoop = true;
        w.nests.push_back(ir::parseKernel(R"(
            array AREA[N]; array EMIT[N]; array TOT[N];
            for i = 0..N {
              S1: TOT[i] = TOT[i] + RAD[i] * AREA[i] + EMIT[i];
            })",
                                          "radiosity/total", w.arrays,
                                          params));
        installIndex(w, "VIS1", neighborListIndices(n, 64, 0.3, rng));
        installIndex(w, "VIS2", neighborListIndices(n, 256, 0.5, rng));
        markMcdram(w, {"RAD", "RADP"});
    } else if (app == "radix") {
        // Digit extraction (shift/logical ops) plus histogram scatter
        // through an indirect left-hand side.
        w.nests.push_back(ir::parseKernel(R"(
            array KEY[N]; array DIG[N]; array SH[N]; array MSK[N];
            for i = 0..N {
              S1: DIG[i] = (KEY[i] >> SH[i]) & MSK[i];
            })",
                                          "radix/digits", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array CNT[N]; array ONE[N]; array BKT[N];
            for i = 0..N {
              S1: CNT[BKT[i]] = CNT[BKT[i]] + ONE[i];
            })",
                                          "radix/hist", w.arrays,
                                          params));
                installIndex(w, "BKT", scatterIndices(n, n, rng));
        markMcdram(w, {"KEY", "CNT"});
    } else if (app == "raytrace") {
        // Shading: a guarded accumulation with indirect texture reads
        // and a mul/div-heavy attenuation statement.
        w.nests.push_back(ir::parseKernel(R"(
            array CLR[N]; array TX[N]; array LT1[N]; array LT2[N];
            array OBJ[N]; array HIT[N];
            for i = 0..N {
              S1: if (HIT[i]) CLR[i] = CLR[i] + TX[OBJ[i]] * LT1[i]
                           + TX[OBJ[i]] * LT2[i];
            })",
                                          "raytrace/shade", w.arrays,
                                          params));
        w.nests.back().hasTimingLoop = true;
        w.nests.push_back(ir::parseKernel(R"(
            array ATT[N]; array NRM[N]; array DST[N]; array LI[N];
            for i = 0..N {
              S1: ATT[i] = NRM[i] / DST[i] * LI[i];
            })",
                                          "raytrace/atten", w.arrays,
                                          params));
        installIndex(w, "OBJ", neighborListIndices(n, 128, 0.4, rng));
        markMcdram(w, {"CLR", "TX"});
    } else if (app == "water") {
        // Pair forces: wide, purely affine add/sub statements.
        w.nests.push_back(ir::parseKernel(R"(
            array FX[N]; array EPS[N]; array SIG[N];
            array RA[N]; array RB[N]; array RC[N]; array RD[N];
            for i = 0..N {
              S1: FX[i] = FX[i] + EPS[i] * (RA[i] - RB[i])
                          + SIG[i] * (RC[i] - RD[i]);
              S2: RA[i] = RA[i] + FX[i] * EPS[i];
            })",
                                          "water/forces", w.arrays,
                                          params));
        w.nests.push_back(ir::parseKernel(R"(
            array KIN[N]; array VSQ[N]; array MAS[N];
            for i = 0..N {
              S1: KIN[i] = KIN[i] + MAS[i] * VSQ[i];
            })",
                                          "water/energy", w.arrays,
                                          params));
        markMcdram(w, {"FX", "RA", "RB"});
    } else if (app == "minimd") {
        // Lennard-Jones forces over 3 neighbor-list entries: the
        // longest statements in the suite -> highest parallelism and
        // movement reduction.
        w.nests.push_back(ir::parseKernel(R"(
            array X[N]; array F[N]; array W1[N]; array W2[N];
            array W3[N]; array NL1[N]; array NL2[N]; array NL3[N];
            for i = 0..N {
              S1: F[i] = F[i] + (X[NL1[i]] - X[i]) * W1[i]
                         + (X[NL2[i]] - X[i]) * W2[i]
                         + (X[NL3[i]] - X[i]) * W3[i];
            })",
                                          "minimd/force", w.arrays,
                                          params));
        w.nests.back().hasTimingLoop = true;
        w.nests.push_back(ir::parseKernel(R"(
            array V[N]; array DTF[N];
            for i = 0..N {
              S1: V[i] = V[i] + F[i] * DTF[i];
              S2: X[i] = X[i] + V[i] * DTF[i];
            })",
                                          "minimd/integrate", w.arrays,
                                          params));
        installIndex(w, "NL1", neighborListIndices(n, 16, 0.05, rng));
        installIndex(w, "NL2", neighborListIndices(n, 32, 0.1, rng));
        installIndex(w, "NL3", neighborListIndices(n, 96, 0.2, rng));
        markMcdram(w, {"X", "F"});
    } else if (app == "minixyce") {
        // Sparse matrix-vector products from circuit simulation: one
        // indirect column read among mostly affine traffic.
        w.nests.push_back(ir::parseKernel(R"(
            array Y[N]; array AV[N]; array XV[N]; array BV[N];
            array CI[N];
            for i = 0..N {
              S1: Y[i] = Y[i] + AV[i] * XV[CI[i]] + BV[i];
              S2: XV[i] = XV[i] + Y[i] * BV[i];
            })",
                                          "minixyce/spmv", w.arrays,
                                          params));
        w.nests.back().hasTimingLoop = true;
        w.nests.push_back(ir::parseKernel(R"(
            array G[N]; array DV[N]; array RES[N];
            for i = 0..N {
              S1: RES[i] = G[i] * DV[i] - RES[i];
            })",
                                          "minixyce/residual", w.arrays,
                                          params));
        installIndex(w, "CI", neighborListIndices(n, 24, 0.1, rng));
        markMcdram(w, {"Y", "AV", "XV"});
    } else {
        fatal("unknown application '" + app + "'");
    }
    return w;
}

} // namespace ndp::workloads
