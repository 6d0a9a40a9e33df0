#include "workloads/suite.hpp"

#include "cfg/builder.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "support/assert.hpp"
#include "workloads/asm_builder.hpp"

namespace apcc::workloads {

namespace {

// Each kernel emits assembly through AsmBuilder. Register conventions in
// the kernels: r1-r9 scratch/induction, r10-r12 buffer bases and
// constants, r13 saved link for nested calls, r15 link (jal/ret).
//
// Every kernel carries substantial *cold* code -- both never-executed
// blocks inside hot functions and entire never-called functions -- which
// is representative of embedded binaries (error handling, alternative
// configurations) and is exactly the slack the paper's scheme and the
// cold-code baselines exploit.

std::string adpcm_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Leaf: quantise one sample (r1 in, r2 out; r3/r4 scratch;
  // r5 = predictor state, r6 = step size -- live across calls).
  b.func("adpcm_step");
  b.ins("sub r3, r1, r5");
  const std::string pos = b.gensym("pos");
  b.ins("slt r4, r3, r0");
  b.ins("beq r4, r0, " + pos);
  b.ins("sub r3, r0, r3");
  b.label(pos);
  b.ins("addi r2, r0, 0");
  b.if_eq_else(
      "r4", "r0",
      [&] {  // positive branch: code = diff / step (2 quantiser bits)
        b.ins("div r2, r3, r6");
        b.ins("andi r2, r2, 3");
        b.compute_run(6);
      },
      [&] {  // negative branch: set the sign bit
        b.ins("div r2, r3, r6");
        b.ins("andi r2, r2, 3");
        b.ins("ori r2, r2, 4");
        b.compute_run(6);
      });
  // Predictor update: pred += (code & 3) * step / 2.
  b.ins("andi r3, r2, 3");
  b.ins("mul r3, r3, r6");
  b.ins("addi r4, r0, 2");
  b.ins("div r3, r3, r4");
  b.ins("add r5, r5, r3");
  b.ins("ret");

  // Cold: saturation recovery, never called (only referenced from a
  // never-taken guard in main).
  b.func("adpcm_saturate");
  b.compute_run(90);
  b.ins("ret");

  // Warm-once: drains the encoder state after the sample loop; first
  // (and only) call happens late in the run.
  b.func("adpcm_flush");
  b.compute_run(24);
  b.ins("sw r5, 0(r10)");
  b.ins("sw r6, 4(r10)");
  b.ins("ret");

  b.func("main");
  b.ins("addi r5, r0, 0");      // predictor
  b.ins("addi r6, r0, 16");     // step size
  b.ins("addi r8, r0, 37");     // sample mixer
  b.ins("addi r10, r0, 2048");  // output buffer base
  b.counted_loop("r7", 256 * scale, [&] {
    b.ins("mul r1, r7, r8");
    b.ins("andi r1, r1, 255");
    b.ins("jal adpcm_step");
    b.ins("sw r2, 0(r10)");
    b.ins("addi r10, r10, 4");
    b.compute_run(14);
    // Step-size adaptation every 16 samples.
    b.rare_path("r7", "r9", 4, [&] {
      b.ins("addi r6, r6, 4");
      b.ins("andi r6, r6, 63");
      b.ins("ori r6, r6, 8");
      b.compute_run(10);
    });
    // Cold: saturation error handling, never reached.
    b.cold_region([&] {
      b.compute_run(40);
      b.ins("jal adpcm_saturate");
    });
  });
  b.ins("jal adpcm_flush");
  // Cold tail: bitstream-error reporting, present in the image only.
  b.cold_region([&] { b.compute_run(50); });
  b.ins("halt");
  return b.source();
}

std::string gsm_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Cold: comfort-noise generator for DTX mode, never engaged.
  b.func("gsm_dtx_fill");
  b.compute_run(110);
  b.ins("ret");

  b.func("main");
  b.ins("addi r10, r0, 4096");  // sample buffer
  b.ins("addi r11, r0, 8192");  // coefficient table
  b.ins("addi r9, r0, 0");      // frame accumulator
  // Fill a small coefficient table once (cold-ish setup, runs once).
  b.counted_loop("r1", 8, [&] {
    b.ins("mul r2, r1, r1");
    b.ins("sw r2, 0(r11)");
    b.ins("addi r11, r11, 4");
  });
  b.ins("addi r11, r0, 8192");
  // frames x samples: long-term-prediction style MAC loops.
  b.counted_loop("r7", 24 * scale, [&] {       // frames
    b.ins("addi r8, r0, 0");                   // frame energy
    b.counted_loop("r6", 40, [&] {             // samples per frame
      b.ins("mul r1, r6, r7");
      b.ins("andi r1, r1, 1023");
      b.ins("lw r2, 0(r11)");
      b.ins("mul r3, r1, r2");
      b.ins("add r8, r8, r3");
      b.ins("sra r8, r8, r4");  // r4 = 0 initially: harmless shift
      b.compute_run(8);
    });
    b.ins("add r9, r9, r8");
    b.ins("sw r9, 0(r10)");
    // Rare: silence detection path every 8 frames.
    b.rare_path("r7", "r2", 3, [&] {
      b.ins("addi r9, r9, -1");
      b.ins("slt r3, r9, r0");
      b.if_ne("r3", "r0", [&] { b.ins("addi r9, r0, 0"); });
      b.compute_run(12);
    });
    b.cold_region([&] {
      b.compute_run(50);
      b.ins("jal gsm_dtx_fill");
    });
  });
  b.ins("halt");
  return b.source();
}

std::string jpeg_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Leaf: 1-D butterfly pass over one row (r1 = row base address).
  b.func("dct_row");
  b.ins("lw r2, 0(r1)");
  b.ins("lw r3, 4(r1)");
  b.ins("add r4, r2, r3");
  b.ins("sub r5, r2, r3");
  b.ins("sw r4, 0(r1)");
  b.ins("sw r5, 4(r1)");
  b.ins("lw r2, 8(r1)");
  b.ins("lw r3, 12(r1)");
  b.ins("add r4, r2, r3");
  b.ins("sub r5, r2, r3");
  b.ins("sw r4, 8(r1)");
  b.ins("sw r5, 12(r1)");
  b.compute_run(10);
  b.ins("ret");

  // Cold: progressive-mode entropy tables, never built in this profile.
  b.func("jpeg_progressive_tables");
  b.compute_run(120);
  b.ins("ret");

  b.func("main");
  b.ins("addi r10, r0, 16384");  // image buffer
  // Cold: quantisation table setup for an alternative profile.
  b.cold_region([&] {
    b.compute_run(45);
    b.ins("jal jpeg_progressive_tables");
  });
  b.counted_loop("r7", 16 * scale, [&] {  // macroblocks
    // Initialise an 8x4-word tile.
    b.ins("add r9, r10, r0");
    b.counted_loop("r6", 8, [&] {
      b.ins("mul r2, r6, r7");
      b.ins("andi r2, r2, 255");
      b.ins("sw r2, 0(r9)");
      b.ins("addi r9, r9, 4");
    });
    // Row transform over 8 rows of the tile.
    b.ins("add r1, r10, r0");
    b.counted_loop("r6", 8, [&] {
      b.ins("jal dct_row");
      b.ins("addi r1, r1, 16");
    });
    // Zigzag + quantise walk with a skip diamond per element.
    b.ins("add r9, r10, r0");
    b.counted_loop("r6", 16, [&] {
      b.ins("lw r2, 0(r9)");
      b.ins("slt r3, r2, r0");
      b.if_eq_else(
          "r3", "r0",
          [&] {
            b.ins("srl r2, r2, r4");  // r4 = 0: identity
            b.compute_run(4);
          },
          [&] {
            b.ins("sub r2, r0, r2");
            b.compute_run(4);
          });
      b.ins("sw r2, 0(r9)");
      b.ins("addi r9, r9, 4");
    });
  });
  b.ins("halt");
  return b.source();
}

std::string mpeg2_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Cold: rate-control panic path for buffer overrun, never taken.
  b.func("mpeg2_rate_panic");
  b.compute_run(100);
  b.ins("ret");

  b.func("main");
  b.ins("addi r10, r0, 24576");  // reference frame
  b.ins("addi r11, r0, 28672");  // current frame
  b.ins("addi r12, r0, 64");     // early-exit threshold
  b.counted_loop("r7", 12 * scale, [&] {  // macroblocks
    b.ins("addi r9, r0, 16384");          // best SAD so far (big)
    b.counted_loop("r6", 9, [&] {         // candidate motion vectors
      b.ins("addi r8, r0, 0");            // SAD accumulator
      const std::string give_up = b.gensym("giveup");
      b.counted_loop("r5", 16, [&] {  // pixels
        b.ins("mul r1, r5, r6");
        b.ins("andi r1, r1, 255");
        b.ins("mul r2, r5, r7");
        b.ins("andi r2, r2, 255");
        b.ins("sub r3, r1, r2");
        b.ins("slt r4, r3, r0");
        b.if_ne("r4", "r0", [&] { b.ins("sub r3, r0, r3"); });
        b.ins("add r8, r8, r3");
        b.compute_run(6);
        // Early exit once the partial SAD exceeds the running best.
        b.ins("slt r4, r9, r8");
        b.ins("bne r4, r0, " + give_up);
      });
      b.label(give_up);
      b.ins("slt r4, r8, r9");
      b.if_ne("r4", "r0", [&] { b.ins("add r9, r8, r0"); });
    });
    b.ins("sw r9, 0(r11)");
    b.ins("addi r11, r11, 4");
    // Rare: scene-change handling every 4 macroblocks.
    b.rare_path("r7", "r2", 2, [&] {
      b.ins("addi r12, r12, 8");
      b.ins("andi r12, r12, 127");
      b.ins("ori r12, r12, 16");
    });
    b.cold_region([&] {
      b.compute_run(60);
      b.ins("jal mpeg2_rate_panic");
    });
  });
  // Cold tail: field-picture handling, absent from this stream type.
  b.cold_region([&] { b.compute_run(55); });
  b.ins("halt");
  return b.source();
}

std::string g721_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Cold: tone/transition detector reset, never triggered.
  b.func("g721_tone_reset");
  b.compute_run(80);
  b.ins("ret");

  b.func("main");
  b.ins("addi r5, r0, 32");  // predictor pole
  b.ins("addi r6, r0, 8");   // predictor zero
  b.ins("addi r10, r0, 32768");
  b.counted_loop("r7", 300 * scale, [&] {
    b.ins("mul r1, r7, r5");
    b.ins("andi r1, r1, 511");
    // A chain of small decision diamonds, one per coefficient.
    for (int stage = 0; stage < 4; ++stage) {
      b.ins("andi r2, r1, " + std::to_string(1 << stage));
      b.if_eq_else(
          "r2", "r0",
          [&] {
            b.ins("addi r5, r5, 1");
            b.ins("andi r5, r5, 255");
            b.compute_run(4);
          },
          [&] {
            b.ins("addi r6, r6, 1");
            b.ins("andi r6, r6, 63");
            b.compute_run(4);
          });
    }
    b.ins("add r3, r5, r6");
    b.ins("sw r3, 0(r10)");
    b.compute_run(12);
    b.rare_path("r7", "r4", 5, [&] {  // step adaptation every 32 samples
      b.ins("srl r5, r5, r9");        // r9 = 0: identity shift
      b.ins("addi r6, r6, 2");
      b.compute_run(8);
    });
    b.cold_region([&] {
      b.compute_run(35);
      b.ins("jal g721_tone_reset");
    });
  });
  // Cold tail: law-conversion tables for the other companding mode.
  b.cold_region([&] { b.compute_run(60); });
  b.ins("halt");
  return b.source();
}

std::string pegwit_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Cold: big-number division fallback, never needed by this key size.
  b.func("mp_div_fallback");
  b.compute_run(130);
  b.ins("ret");

  // mul_word: multiply-with-carry over a 4-word limb array at r1.
  // Uses r13 to preserve the link register across the nested call.
  b.func("mul_word");
  b.ins("addi r4, r0, 0");  // carry
  b.counted_loop("r5", 4, [&] {
    b.ins("lw r2, 0(r1)");
    b.ins("mul r3, r2, r6");  // r6 = multiplier
    b.ins("add r3, r3, r4");
    b.ins("srl r4, r3, r8");  // r8 = 16: carry = high half
    b.ins("andi r3, r3, 16383");
    b.ins("sw r3, 0(r1)");
    b.ins("addi r1, r1, 4");
  });
  b.ins("ret");

  // square_into: calls mul_word twice (nested call, saved link).
  b.func("square_into");
  b.ins("add r13, r15, r0");  // save link
  b.ins("jal mul_word");
  b.ins("addi r1, r1, -16");  // rewind limb pointer
  b.ins("jal mul_word");
  b.ins("add r15, r13, r0");  // restore link
  b.ins("ret");

  b.func("main");
  b.ins("addi r10, r0, 40960");  // limb buffer
  b.ins("addi r8, r0, 16");      // carry shift
  // Initialise limbs.
  b.ins("add r1, r10, r0");
  b.counted_loop("r5", 4, [&] {
    b.ins("addi r2, r5, 9");
    b.ins("sw r2, 0(r1)");
    b.ins("addi r1, r1, 4");
  });
  b.counted_loop("r7", 80 * scale, [&] {
    b.ins("andi r6, r7, 1023");
    b.ins("ori r6, r6, 3");
    b.ins("add r1, r10, r0");
    b.ins("jal square_into");
    // Carry-propagation diamond.
    b.ins("slt r2, r0, r4");
    b.if_ne("r2", "r0", [&] {
      b.ins("lw r3, 0(r10)");
      b.ins("add r3, r3, r4");
      b.ins("andi r3, r3, 16383");
      b.ins("sw r3, 0(r10)");
    });
    b.compute_run(12);
    b.rare_path("r7", "r3", 4, [&] {  // renormalise every 16 rounds
      b.ins("add r1, r10, r0");
      b.ins("lw r2, 0(r1)");
      b.ins("ori r2, r2, 1");
      b.ins("sw r2, 0(r1)");
      b.compute_run(10);
    });
    // Deep cold code: parameter validation / error reporting.
    b.cold_region([&] {
      b.compute_run(70);
      b.ins("jal mp_div_fallback");
    });
  });
  b.ins("halt");
  return b.source();
}

std::string dijkstra_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Cold: path reconstruction, only needed when a query is issued.
  b.func("dij_reconstruct");
  b.compute_run(95);
  b.ins("ret");

  b.func("main");
  b.ins("addi r10, r0, 49152");  // dist[] array (16 nodes)
  // Initialise distances to a large value, source to 0.
  b.ins("add r1, r10, r0");
  b.counted_loop("r5", 16, [&] {
    b.ins("addi r2, r0, 16383");
    b.ins("sw r2, 0(r1)");
    b.ins("addi r1, r1, 4");
  });
  b.ins("sw r0, 0(r10)");
  // Relaxation sweeps: for each round, walk all node pairs (u, v) with a
  // synthetic edge weight; relax when it improves -- the data-dependent
  // branch that makes this workload's access pattern irregular.
  b.counted_loop("r7", 6 * scale, [&] {          // rounds
    b.counted_loop("r6", 16, [&] {               // u
      b.ins("addi r1, r6, -1");
      b.ins("slli r1, r1, 2");
      b.ins("add r1, r1, r10");
      b.ins("lw r2, 0(r1)");                     // dist[u]
      b.counted_loop("r5", 4, [&] {              // 4 neighbours of u
        // v = (u * 5 + r5 * 3) % 16, w = ((u + r5) & 7) + 1
        b.ins("mul r3, r6, r5");
        b.ins("andi r3, r3, 15");
        b.ins("slli r3, r3, 2");
        b.ins("add r3, r3, r10");
        b.ins("lw r4, 0(r3)");                   // dist[v]
        b.ins("add r1, r6, r5");
        b.ins("andi r1, r1, 7");
        b.ins("addi r1, r1, 1");                 // weight
        b.ins("add r1, r2, r1");                 // cand = dist[u] + w
        b.ins("slt r2, r1, r4");
        b.if_ne("r2", "r0", [&] {                // relax
          b.ins("sw r1, 0(r3)");
          b.compute_run(5);
        });
        // Reload dist[u] (r1/r2 were clobbered).
        b.ins("addi r2, r6, -1");
        b.ins("slli r2, r2, 2");
        b.ins("add r2, r2, r10");
        b.ins("lw r2, 0(r2)");
      });
    });
    b.rare_path("r7", "r3", 2, [&] {  // periodic queue compaction
      b.compute_run(14);
    });
    b.cold_region([&] {
      b.compute_run(40);
      b.ins("jal dij_reconstruct");
    });
  });
  b.ins("halt");
  return b.source();
}

std::string crc_like_source(int scale) {
  AsmBuilder b;
  b.entry("main");

  // Cold: table regeneration for the reflected polynomial variant.
  b.func("crc_reflected_table");
  b.compute_run(105);
  b.ins("ret");

  b.func("main");
  b.ins("addi r10, r0, 53248");  // 16-entry nibble table
  b.ins("addi r11, r0, 57344");  // message buffer
  // Build the table once (hot at start, never again): entry = f(i).
  b.ins("add r1, r10, r0");
  b.counted_loop("r5", 16, [&] {
    b.ins("mul r2, r5, r5");
    b.ins("xori r2, r2, 1021");
    b.ins("andi r2, r2, 16383");
    b.ins("sw r2, 0(r1)");
    b.ins("addi r1, r1, 4");
  });
  // Checksum loop: the tightest kernel in the suite -- one block body,
  // table lookup per byte, rarely leaves the loop.
  b.ins("addi r8, r0, 0");  // crc state
  b.counted_loop("r7", 600 * scale, [&] {
    b.ins("andi r1, r7, 255");       // message byte
    b.ins("xor r2, r8, r1");
    b.ins("andi r2, r2, 15");        // low nibble index
    b.ins("slli r2, r2, 2");
    b.ins("add r2, r2, r10");
    b.ins("lw r3, 0(r2)");
    b.ins("srli r8, r8, 4");
    b.ins("xor r8, r8, r3");
    b.rare_path("r7", "r4", 6, [&] {  // flush digest every 64 bytes
      b.ins("sw r8, 0(r11)");
      b.ins("addi r11, r11, 4");
      b.compute_run(8);
    });
    b.cold_region([&] {
      b.compute_run(30);
      b.ins("jal crc_reflected_table");
    });
  });
  b.ins("sw r8, 0(r11)");
  b.ins("halt");
  return b.source();
}

}  // namespace

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAdpcmLike: return "adpcm-like";
    case WorkloadKind::kGsmLike: return "gsm-like";
    case WorkloadKind::kJpegLike: return "jpeg-like";
    case WorkloadKind::kMpeg2Like: return "mpeg2-like";
    case WorkloadKind::kG721Like: return "g721-like";
    case WorkloadKind::kPegwitLike: return "pegwit-like";
    case WorkloadKind::kDijkstraLike: return "dijkstra-like";
    case WorkloadKind::kCrcLike: return "crc-like";
  }
  return "?";
}

std::vector<WorkloadKind> all_workload_kinds() {
  return {WorkloadKind::kAdpcmLike,    WorkloadKind::kGsmLike,
          WorkloadKind::kJpegLike,     WorkloadKind::kMpeg2Like,
          WorkloadKind::kG721Like,     WorkloadKind::kPegwitLike,
          WorkloadKind::kDijkstraLike, WorkloadKind::kCrcLike};
}

std::string workload_source(WorkloadKind kind,
                            const WorkloadOptions& options) {
  APCC_CHECK(options.scale >= 1, "workload scale must be >= 1");
  switch (kind) {
    case WorkloadKind::kAdpcmLike: return adpcm_like_source(options.scale);
    case WorkloadKind::kGsmLike: return gsm_like_source(options.scale);
    case WorkloadKind::kJpegLike: return jpeg_like_source(options.scale);
    case WorkloadKind::kMpeg2Like: return mpeg2_like_source(options.scale);
    case WorkloadKind::kG721Like: return g721_like_source(options.scale);
    case WorkloadKind::kPegwitLike: return pegwit_like_source(options.scale);
    case WorkloadKind::kDijkstraLike:
      return dijkstra_like_source(options.scale);
    case WorkloadKind::kCrcLike: return crc_like_source(options.scale);
  }
  APCC_ASSERT_FAIL("unknown workload kind");
}

Workload build_workload(std::string name, std::string_view source,
                        const isa::InterpreterOptions& interpreter,
                        bool apply_profile) {
  Workload w;
  w.name = std::move(name);
  w.program = isa::assemble(source);
  // The word -> block map serves only the trace; it stays in `built`.
  auto built = cfg::build_cfg(w.program);
  w.cfg = std::move(built.cfg);

  isa::Interpreter interp(w.program, interpreter);
  cfg::BlockTraceBuilder tracer(w.cfg, built.word_to_block);
  interp.set_trace_hook([&tracer](std::uint32_t pc) { tracer.on_pc(pc); });
  const isa::ExecResult exec = interp.run();
  APCC_CHECK(exec.stop == isa::StopReason::kHalted,
             w.name + ": program did not halt (stopped after " +
                 std::to_string(exec.steps) + " steps)");
  w.trace = tracer.take();
  w.trace.shrink_to_fit();
  cfg::validate_trace(w.cfg, w.trace);

  if (apply_profile) {
    cfg::EdgeProfile profile(w.cfg);
    profile.add_trace(w.trace);
    profile.apply_to(w.cfg);
  }

  w.block_bytes = cut_block_bytes(w.program, w.cfg);
  return w;
}

compress::BlockBytes cut_block_bytes(const isa::Program& program,
                                     const cfg::Cfg& cfg) {
  // One serialisation of the whole image, cut into views: no vector per
  // block.
  const compress::Bytes image = program.bytes();
  compress::BlockBytes bytes;
  bytes.reserve(cfg.block_count(), cfg.total_code_bytes());
  for (const auto& block : cfg.blocks()) {
    APCC_CHECK(std::uint64_t{block.first_word} + block.word_count <=
                   program.word_count(),
               "block outside the program image");
    bytes.push_back(compress::ByteView(image).subspan(
        std::size_t{block.first_word} * isa::kInstructionBytes,
        block.size_bytes()));
  }
  return bytes;
}

Workload make_workload(WorkloadKind kind, const WorkloadOptions& options) {
  // Scale also lengthens the buffers a kernel streams through:
  // adpcm-like writes 4 B per sample from address 2048, 1 KiB per unit
  // of scale, so data memory grows by the default 64 KiB per 16 units.
  // Scales 1-16 keep exactly the default memory, and no kernel reads the
  // stack pointer (top of data memory), so the program and its trace do
  // not depend on the size.
  isa::InterpreterOptions iopts;
  iopts.max_steps = options.max_steps;
  iopts.data_memory_bytes *=
      static_cast<std::size_t>((options.scale - 1) / 16 + 1);
  return build_workload(workload_name(kind), workload_source(kind, options),
                        iopts, options.apply_profile);
}

}  // namespace apcc::workloads
