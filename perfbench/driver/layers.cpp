// Reference results, isolated layer calls and the in-process replay.
#include "layers.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "runtime/block_image.hpp"
#include "runtime/frontier_cache.hpp"
#include "serving/wire.hpp"
#include "sim/batch_engine.hpp"

namespace perfbench {

namespace wire = apcc::serving::wire;
using apcc::serving::JobKind;
using apcc::serving::JobResult;

namespace {

using ImageKey = std::pair<std::size_t, apcc::compress::CodecKind>;

std::unique_ptr<apcc::runtime::BlockImage> build_image(
    const apcc::workloads::Workload& w, apcc::compress::CodecKind codec) {
  std::vector<apcc::compress::Bytes> bytes = w.block_bytes;
  auto c = apcc::compress::make_codec(codec, bytes);
  return std::make_unique<apcc::runtime::BlockImage>(w.cfg, std::move(bytes),
                                                      std::move(c));
}

/// The JobResult the Service should produce for `job`, from reference
/// cell results.
JobResult expected_result(const Job& job, const Reference& ref) {
  JobResult r;
  r.kind = job.spec.kind;
  std::size_t c = 0;
  const auto outcome = [&](std::size_t index, const std::string& label) {
    return apcc::sweep::SweepOutcome{index, label,
                                     ref.results[job.cells[c++]]};
  };
  switch (job.spec.kind) {
    case JobKind::kRun:
      r.run = ref.results[job.cells.at(0)];
      break;
    case JobKind::kSweep:
      for (std::size_t t = 0; t < job.spec.tasks.size(); ++t) {
        r.sweep.push_back(outcome(t, job.spec.tasks[t].label));
      }
      break;
    case JobKind::kCampaign:
      for (const std::string& name : job.spec.workloads) {
        apcc::sweep::CampaignResult group;
        group.workload = ref.programs[ref.program_index.at(name)].name;
        for (std::size_t t = 0; t < job.spec.tasks.size(); ++t) {
          group.outcomes.push_back(outcome(t, job.spec.tasks[t].label));
        }
        r.campaign.push_back(std::move(group));
      }
      break;
  }
  return r;
}

}  // namespace

Reference compute_reference(Plan& plan, Tracer* tracer) {
  Reference ref;
  for (std::size_t p = 0; p < plan.programs.size(); ++p) {
    const auto t0 = Clock::now();
    ref.programs.push_back(build_program(plan.programs[p]));
    const auto t1 = Clock::now();
    ref.program_build_ms.push_back(ms_between(t0, t1));
    if (tracer) tracer->add("workloads.build", t0, t1, 0);
    ref.program_index[plan.programs[p].name] = p;
  }

  std::map<std::string, std::size_t> distinct;
  const auto index_cells = [&](Job& job) {
    for (Cell& cell : job_cells(job.spec, ref.program_index)) {
      const std::string key = cell.key();
      auto it = distinct.find(key);
      if (it == distinct.end()) {
        it = distinct.emplace(key, ref.cells.size()).first;
        ref.cells.push_back(std::move(cell));
      }
      job.cells.push_back(it->second);
    }
  };
  for (Job& job : plan.warmup) index_cells(job);
  for (Job& job : plan.jobs) index_cells(job);

  std::map<ImageKey, std::unique_ptr<apcc::runtime::BlockImage>> images;
  for (const Cell& cell : ref.cells) {
    const ImageKey key{cell.program, cell.codec};
    if (images.count(key)) continue;
    const auto t0 = Clock::now();
    images[key] = build_image(ref.programs[cell.program], cell.codec);
    const auto t1 = Clock::now();
    ref.image_ms[key] = ms_between(t0, t1);
    if (tracer) tracer->add("compress.image_build", t0, t1, 0);
  }
  for (const Cell& cell : ref.cells) {
    const auto& w = ref.programs[cell.program];
    apcc::sim::BatchEngine engine(w.cfg, *images.at({cell.program, cell.codec}),
                                  {cell.config});
    auto out = engine.run(w.trace);
    if (!out.at(0).ok()) {
      try {
        std::rethrow_exception(out[0].error);
      } catch (const std::exception& e) {
        throw std::runtime_error("reference cell " + cell.key() +
                                 " failed: " + e.what());
      }
    }
    ref.results.push_back(out[0].result);
  }

  // Expected records, numbered as each tenant's session will number
  // them (the warm-up runs in-process, so every session starts at 1).
  std::vector<std::uint64_t> seq(plan.tenants.size(), 0);
  for (Job& job : plan.jobs) {
    job.record = wire::serialize_job(job.spec);
    job.seq = ++seq[job.tenant];
    wire::ResultRecord record;
    record.job = job.seq;
    record.client = plan.tenants[job.tenant].tag;
    record.result = expected_result(job, ref);
    const std::string text = wire::serialize_result(record);
    job.expected = fnv1a(text);
    job.expected_bytes = text.size();
  }
  return ref;
}

Isolated measure_isolated(const Plan& plan, const Reference& ref,
                          Tracer& tracer) {
  Isolated iso;
  // Frontier geometry per (program, k) the list touches, kept to be
  // borrowed by the engine runs below as the Service's cells borrow it.
  std::map<std::pair<std::size_t, unsigned>,
           std::unique_ptr<apcc::runtime::FrontierCache>>
      frontiers;
  for (const Cell& cell : ref.cells) {
    const std::pair<std::size_t, unsigned> key{
        cell.program, cell.config.policy.predecompress_k};
    if (frontiers.count(key)) continue;
    const auto t0 = Clock::now();
    auto cache = std::make_unique<apcc::runtime::FrontierCache>(
        ref.programs[cell.program].cfg, key.second);
    cache->materialize();
    const auto t1 = Clock::now();
    iso.frontier_ms[key] = ms_between(t0, t1);
    tracer.add("runtime.frontier_build", t0, t1, 0);
    frontiers[key] = std::move(cache);
  }
  const auto served_config = [&](const Cell& cell) {
    apcc::sim::EngineConfig config = cell.config;
    config.shared_frontiers =
        frontiers.at({cell.program, config.policy.predecompress_k}).get();
    return config;
  };

  // Every distinct cell at width 1, then in batches of the batched
  // width per (program, codec), on one prebuilt image per key.
  std::map<ImageKey, std::vector<std::size_t>> groups;
  for (std::size_t c = 0; c < ref.cells.size(); ++c) {
    groups[{ref.cells[c].program, ref.cells[c].codec}].push_back(c);
  }
  iso.cell_ms.assign(ref.cells.size(), 0.0);
  for (const auto& [key, members] : groups) {
    const auto& w = ref.programs[key.first];
    const auto image = build_image(w, key.second);
    const auto steps = static_cast<double>(w.trace.size());
    for (const std::size_t c : members) {
      const auto t0 = Clock::now();
      apcc::sim::BatchEngine engine(w.cfg, *image,
                                    {served_config(ref.cells[c])});
      (void)engine.run(w.trace);
      const auto t1 = Clock::now();
      iso.cell_ms[c] = ms_between(t0, t1);
      iso.width1_steps += steps;
      iso.width1_ms += iso.cell_ms[c];
      tracer.add("sim.run_width1", t0, t1, 0);
    }
    for (std::size_t b = 0; b < members.size(); b += plan.batched_width) {
      std::vector<apcc::sim::EngineConfig> configs;
      for (std::size_t i = b;
           i < std::min(members.size(), b + plan.batched_width); ++i) {
        configs.push_back(served_config(ref.cells[members[i]]));
      }
      const double batch_steps = static_cast<double>(configs.size()) * steps;
      const auto t0 = Clock::now();
      apcc::sim::BatchEngine engine(w.cfg, *image, std::move(configs));
      (void)engine.run(w.trace);
      const auto t1 = Clock::now();
      iso.batched_steps += batch_steps;
      iso.batched_ms += ms_between(t0, t1);
      tracer.add("sim.run_batched", t0, t1, 0);
    }
  }

  // The wire codec on the timed list's own records.
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const Job& job = plan.jobs[j];
    const auto t0 = Clock::now();
    (void)wire::parse_job(job.record);
    const auto t1 = Clock::now();
    wire::ResultRecord record;
    record.job = job.seq;
    record.client = plan.tenants[job.tenant].tag;
    record.result = expected_result(job, ref);
    const auto t2 = Clock::now();
    const std::string text = wire::serialize_result(record);
    const auto t3 = Clock::now();
    (void)text;
    iso.parse_us.push_back(ms_between(t0, t1) * 1e3);
    iso.serialize_us.push_back(ms_between(t2, t3) * 1e3);
    tracer.add("wire.parse_job", t0, t1, j + 1);
    tracer.add("wire.serialize_result", t2, t3, j + 1);
  }

  // Ratio and encode speed of every kept codec over the programs.
  for (const auto codec : kept_codecs()) {
    Isolated::CodecRow& row = iso.codecs[codec];
    for (const auto& w : ref.programs) {
      const auto t0 = Clock::now();
      const auto image = build_image(w, codec);
      const auto t1 = Clock::now();
      for (std::size_t b = 0; b < image->block_count(); ++b) {
        row.original_bytes += static_cast<double>(
            image->original_size(static_cast<apcc::cfg::BlockId>(b)));
        row.compressed_bytes += static_cast<double>(
            image->compressed_size(static_cast<apcc::cfg::BlockId>(b)));
      }
      row.build_ms += ms_between(t0, t1);
      tracer.add("compress.image_build", t0, t1, 0);
    }
  }
  return iso;
}

Replay replay_inprocess(const Plan& plan, const Phase& phase, Host& host,
                        Tracer& tracer) {
  Replay replay;
  auto& service = host.service();
  const std::size_t n = phase.end - phase.begin;
  std::vector<Clock::time_point> submitted(n);
  // Shared with the callbacks, which run on pool threads and may outlive
  // this frame if it unwinds early.
  const auto ready = std::make_shared<std::vector<std::atomic<Clock::rep>>>(n);
  std::vector<apcc::serving::JobHandle<JobResult>> handles(n);
  const auto arm = [&](std::size_t i) {
    handles[i].on_ready([ready, i] {
      (*ready)[i].store(Clock::now().time_since_epoch().count(),
                        std::memory_order_release);
    });
  };
  if (phase.loop == Loop::kOpen) {
    const auto origin = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < n; ++i) {
      const Job& job = plan.jobs[phase.begin + i];
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(job.due_s)));
      submitted[i] = Clock::now();
      handles[i] = service.submit(job.spec);
      arm(i);
    }
    for (auto& h : handles) (void)h.wait();
  } else {
    if (phase.window != 1 || plan.tenants.size() != 1) {
      throw std::logic_error("replay: closed loop needs one job in flight");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto before = service.cache_stats();
      submitted[i] = Clock::now();
      handles[i] = service.submit(plan.jobs[phase.begin + i].spec);
      arm(i);
      (void)handles[i].wait();
      const auto after = service.cache_stats();
      replay.images_built.push_back(after.images.built - before.images.built);
      replay.frontiers_built.push_back(after.frontiers.built -
                                       before.frontiers.built);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!handles[i].wait().ok()) {
      throw std::runtime_error("replay: job " +
                               std::to_string(phase.begin + i) +
                               " did not succeed in-process");
    }
    // wait() returning does not order us after the callback's store.
    Clock::rep r = 0;
    while ((r = (*ready)[i].load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    const Clock::time_point done{Clock::duration(r)};
    replay.latency_ms.push_back(ms_between(submitted[i], done));
    tracer.add("inprocess.job", submitted[i], done, phase.begin + i + 1);
  }
  return replay;
}

}  // namespace perfbench
