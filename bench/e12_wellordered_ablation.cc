// E12 -- ablating well-ordering (Definition 2 and footnote 3).
//
// Why must the contracted graph be acyclic? Because a component of a
// non-well-ordered partition cannot execute its batch in isolation: some
// other component must run in between, so the one-load-per-batch schedule
// does not exist. This experiment (a) confirms the scheduler rejects
// non-well-ordered partitions outright, and (b) quantifies the cost of the
// *best* well-ordered partition versus an (invalid) lower-bandwidth
// non-well-ordered cut on a graph engineered to make that gap visible --
// justifying why Definition 2 restricts the partition space.

#include "bench/common.h"
#include "partition/dag_exact.h"
#include "schedule/partitioned.h"
#include "sdf/gain.h"
#include "sdf/min_buffer.h"
#include "util/error.h"

int main(int argc, char** argv) {
  using namespace ccs;
  const bool csv = bench::parse_flags(argc, argv);
  const std::int64_t m = 512;
  const std::int64_t b = 8;

  // Diamond with heavy endpoints and light middles: grouping {s,t} would
  // minimize raw cut bandwidth but creates a contracted cycle.
  sdf::SdfGraph g;
  const sdf::NodeId s = g.add_node("s", 400);
  const sdf::NodeId x = g.add_node("x", 100);
  const sdf::NodeId y = g.add_node("y", 100);
  const sdf::NodeId t_node = g.add_node("t", 400);
  g.add_edge(s, x, 1, 1);
  g.add_edge(s, y, 4, 4);
  g.add_edge(x, t_node, 1, 1);
  g.add_edge(y, t_node, 4, 4);
  const sdf::GainMap gains(g);

  Table t("E12: well-ordering ablation (diamond, M=512, B=8)");
  t.set_header({"partition", "bandwidth", "well-ordered", "schedulable", "misses/output"});
  t.set_align({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kRight});

  auto report = [&](const std::string& name, const partition::Partition& p) {
    const auto bw = partition::bandwidth(g, gains, p);
    const bool ordered = partition::is_well_ordered(g, p);
    std::string schedulable = "yes";
    std::string misses = "-";
    try {
      schedule::PartitionedOptions sopts;
      sopts.m = m;
      const auto sched = schedule::partitioned_schedule(g, p, sopts, sdf::feasible_buffers(g));
      const auto r = bench::run(g, sched, 4 * m, b, 2048);
      misses = Table::num(r.misses_per_output(), 3);
    } catch (const Error&) {
      schedulable = "NO (rejected)";
    }
    t.add_row({name, bw.to_string(), ordered ? "yes" : "no", schedulable, misses});
  };

  // The tempting but illegal cut: endpoints together (bandwidth 2: s->x and
  // x->t cross; s->y, y->t internal... actually s,y,t vs x).
  report("{s,y,t} | {x}  (cycle)",
         partition::Partition::from_components(g, {{s, y, t_node}, {x}}));
  report("{s,t} | {x} | {y}  (cycle)",
         partition::Partition::from_components(g, {{s, t_node}, {x}, {y}}));
  // Legal alternatives.
  report("{s} | {x,y} | {t}",
         partition::Partition::from_components(g, {{s}, {x, y}, {t_node}}));
  report("{s,x,y} | {t}",
         partition::Partition::from_components(g, {{s, x, y}, {t_node}}));
  // What the exact solver picks under the same bound.
  partition::ExactOptions eopts;
  eopts.state_bound = 3 * m;
  const auto exact = partition::dag_exact_partition(g, eopts);
  if (exact.has_value()) report("exact optimum", exact->partition);

  bench::emit(t, csv);
  return 0;
}
