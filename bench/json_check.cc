/**
 * @file
 * Standalone validator for BENCH_<name>.json documents: parses the
 * file with the in-tree JSON parser and checks the ztx.bench schema
 * (kind, schema_version, bench, meta, non-empty records, sim_speed).
 * Exit code 0 only for a well-formed report; used by the
 * bench_json_smoke ctest target.
 *
 * `json_check --same A B` instead compares two reports and exits 0
 * only when they are equal apart from host timing: the
 * sim_speed.host_seconds and sim_speed.*_per_host_second fields and
 * every `prof` object. It is the identity gate for changes that
 * must not move a simulated result.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/json.hh"

namespace {

int
fail(const char *path, const char *what)
{
    std::fprintf(stderr, "json_check: %s: %s\n", path, what);
    return 1;
}

bool
isOneOf(const ztx::Json &v,
        std::initializer_list<const char *> names)
{
    if (!v.isString())
        return false;
    for (const char *n : names)
        if (v.str() == n)
            return true;
    return false;
}

/**
 * Validate one record's "fault_plan" section: every rate and shape
 * parameter numeric, schedule entries carrying at/kind/target/line,
 * scenario steps carrying the full trigger grammar with names drawn
 * from the known sets. Returns nullptr when well-formed, else a
 * static message.
 */
const char *
checkFaultPlan(const ztx::Json &plan)
{
    if (!plan.isObject())
        return "fault_plan is not an object";
    for (const char *key :
         {"spurious_abort_rate", "xi_storm_rate",
          "capacity_squeeze_rate", "interrupt_storm_rate",
          "delayed_xi_rate", "targeted_conflict_rate",
          "poison_rate", "xi_storm_burst", "squeeze_l1_ways",
          "squeeze_l2_ways", "squeeze_duration", "interrupt_burst",
          "xi_delay_max", "targeted_line", "seed"}) {
        const ztx::Json *v = plan.find(key);
        if (!v || !v->isNumber())
            return "fault_plan parameter missing or not numeric";
    }
    const ztx::Json *sched = plan.find("schedule");
    if (!sched || !sched->isArray())
        return "fault_plan.schedule missing";
    for (std::size_t i = 0; i < sched->size(); ++i) {
        const ztx::Json &f = sched->at(i);
        const ztx::Json *at = f.find("at");
        const ztx::Json *tgt = f.find("target");
        const ztx::Json *line = f.find("line");
        const ztx::Json *kind = f.find("kind");
        if (!at || !at->isNumber() || !tgt || !tgt->isNumber() ||
            !line || !line->isNumber())
            return "schedule entry with bad at/target/line";
        if (!kind ||
            !isOneOf(*kind, {"spurious_abort", "xi_storm",
                             "capacity_squeeze", "interrupt_storm",
                             "delayed_xi", "targeted_conflict",
                             "poison_line"}))
            return "schedule entry with unknown kind";
    }
    const ztx::Json *scen = plan.find("scenario");
    if (!scen || !scen->isArray())
        return "fault_plan.scenario missing";
    for (std::size_t i = 0; i < scen->size(); ++i) {
        const ztx::Json &s = scen->at(i);
        const ztx::Json *trig = s.find("trigger");
        if (!trig || !isOneOf(*trig, {"at_cycle", "on_abort",
                                      "on_footprint", "after_step"}))
            return "scenario step with unknown trigger";
        const ztx::Json *kind = s.find("kind");
        if (!kind ||
            !isOneOf(*kind, {"spurious_abort", "xi_storm",
                             "capacity_squeeze", "interrupt_storm",
                             "delayed_xi", "targeted_conflict",
                             "poison_line"}))
            return "scenario step with unknown kind";
        const ztx::Json *check = s.find("check");
        if (!check ||
            !isOneOf(*check, {"none", "target_in_tx",
                              "target_not_in_tx",
                              "line_in_target_footprint"}))
            return "scenario step with unknown check";
        for (const char *key : {"at", "period", "repeat", "watch",
                                "count", "line", "after", "target"}) {
            const ztx::Json *v = s.find(key);
            if (!v || !v->isNumber())
                return "scenario step field missing or not numeric";
        }
    }
    return nullptr;
}

/**
 * Validate one record's "litmus" section: the enumeration verdict
 * must be a known value, the explored-schedule count positive, and
 * the outcome list well-formed (non-empty for any uncapped run).
 * Returns nullptr when well-formed, else a static message.
 */
const char *
checkLitmus(const ztx::Json &lit)
{
    if (!lit.isObject())
        return "litmus is not an object";
    const ztx::Json *test = lit.find("test");
    if (!test || !test->isString() || test->str().empty())
        return "litmus.test missing";
    const ztx::Json *verdict = lit.find("verdict");
    if (!verdict ||
        !isOneOf(*verdict, {"ok", "violation", "frontier-capped"}))
        return "litmus.verdict unknown";
    const ztx::Json *explored = lit.find("schedules_explored");
    if (!explored || !explored->isNumber() ||
        explored->asUint() == 0)
        return "litmus.schedules_explored missing or zero";
    for (const char *key :
         {"capped", "cap_reason", "decisions", "steps_total",
          "max_depth", "outcomes_seen", "commits", "aborts",
          "scenario_fired"}) {
        if (!lit.contains(key))
            return "litmus field missing";
    }
    const ztx::Json *outs = lit.find("outcomes");
    if (!outs || !outs->isArray())
        return "litmus.outcomes missing";
    if (verdict->str() == "ok" && outs->size() == 0)
        return "litmus verdict ok with no outcomes";
    for (std::size_t i = 0; i < outs->size(); ++i) {
        const ztx::Json &o = outs->at(i);
        const ztx::Json *state = o.find("state");
        const ztx::Json *count = o.find("count");
        if (!state || !state->isString() || !count ||
            !count->isNumber() || count->asUint() == 0)
            return "litmus outcome entry malformed";
    }
    const ztx::Json *viol = lit.find("violations");
    if (!viol || !viol->isArray())
        return "litmus.violations missing";
    if ((verdict->str() == "violation") != (viol->size() > 0))
        return "litmus verdict inconsistent with violations list";
    // The frontier-cap contract: a capped enumeration may never
    // report "ok", and an uncapped one may never blame a cap.
    const ztx::Json *capped = lit.find("capped");
    if (capped->boolean() && verdict->str() == "ok")
        return "litmus capped enumeration with verdict ok";
    if (!capped->boolean() && verdict->str() == "frontier-capped")
        return "litmus frontier-capped without capped flag";
    return nullptr;
}

/**
 * Validate one record's "prof" section: the phase-profiler snapshot
 * must carry the enabled flag, the cycle unit, and a sites array of
 * {name, cycles, calls} entries with non-empty names. An enabled
 * snapshot with no sites means the profiler was compiled out or the
 * scopes were never reached — either way the record is not the
 * per-phase breakdown it claims to be. Returns nullptr when
 * well-formed, else a static message.
 */
const char *
checkProf(const ztx::Json &prof)
{
    if (!prof.isObject())
        return "prof is not an object";
    const ztx::Json *enabled = prof.find("enabled");
    if (!enabled || enabled->type() != ztx::Json::Type::Bool)
        return "prof.enabled missing or not a bool";
    const ztx::Json *unit = prof.find("unit");
    if (!unit || !isOneOf(*unit, {"tsc", "ns"}))
        return "prof.unit unknown";
    const ztx::Json *sites = prof.find("sites");
    if (!sites || !sites->isArray())
        return "prof.sites missing";
    for (std::size_t i = 0; i < sites->size(); ++i) {
        const ztx::Json &s = sites->at(i);
        const ztx::Json *name = s.find("name");
        if (!name || !name->isString() || name->str().empty())
            return "prof site without a name";
        const ztx::Json *cycles = s.find("cycles");
        const ztx::Json *calls = s.find("calls");
        if (!cycles || !cycles->isNumber() || !calls ||
            !calls->isNumber())
            return "prof site cycles/calls missing or not numeric";
        if (calls->asUint() == 0 && cycles->asUint() != 0)
            return "prof site with cycles but zero calls";
    }
    return nullptr;
}

/** Parse the JSON file at @p path; nullopt (after a message) if not. */
std::optional<ztx::Json>
load(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        fail(path, "cannot open");
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto doc = ztx::Json::parse(buf.str());
    if (!doc)
        fail(path, "parse error");
    return doc;
}

/**
 * @p v without its host-timing fields: every `prof` member, and
 * host_seconds and the *_per_host_second rates of `sim_speed`.
 */
ztx::Json
withoutHostTiming(const ztx::Json &v, bool in_sim_speed = false)
{
    if (v.isArray()) {
        ztx::Json out = ztx::Json::array();
        for (std::size_t i = 0; i < v.size(); ++i)
            out.push(withoutHostTiming(v.at(i)));
        return out;
    }
    if (!v.isObject())
        return v;
    ztx::Json out = ztx::Json::object();
    for (const auto &[key, member] : v.items()) {
        if (key == "prof" ||
            (in_sim_speed && (key == "host_seconds" ||
                              key.ends_with("_per_host_second"))))
            continue;
        out[key] = withoutHostTiming(member, key == "sim_speed");
    }
    return out;
}

/** The `--same A B` mode: 0 when equal apart from host timing. */
int
same(const char *path_a, const char *path_b)
{
    const auto a = load(path_a);
    const auto b = load(path_b);
    if (!a || !b)
        return 1;
    if (withoutHostTiming(*a).dump() != withoutHostTiming(*b).dump()) {
        std::fprintf(stderr, "json_check: %s and %s differ\n", path_a,
                     path_b);
        return 1;
    }
    std::printf("json_check: %s and %s: same\n", path_a, path_b);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool same_mode =
        argc > 1 && std::strcmp(argv[1], "--same") == 0;
    if (same_mode && argc == 4)
        return same(argv[2], argv[3]);
    bool require_prof = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--require-prof") == 0)
            require_prof = true;
        else if (path == nullptr)
            path = argv[i];
        else
            path = ""; // too many operands
    }
    if (same_mode || path == nullptr || *path == '\0') {
        std::fprintf(stderr, "usage: json_check [--require-prof] "
                             "<BENCH_*.json>\n"
                             "       json_check --same <A.json> "
                             "<B.json>\n");
        return 2;
    }
    const auto doc = load(path);
    if (!doc)
        return 1;

    const ztx::Json *kind = doc->find("kind");
    if (!kind || kind->str() != "ztx.bench")
        return fail(path, "kind != ztx.bench");
    const ztx::Json *version = doc->find("schema_version");
    if (!version || version->asUint() < 1)
        return fail(path, "bad schema_version");
    const ztx::Json *bench = doc->find("bench");
    if (!bench || bench->str().empty())
        return fail(path, "missing bench name");
    if (!doc->contains("meta"))
        return fail(path, "missing meta");
    const ztx::Json *records = doc->find("records");
    if (!records || records->size() == 0)
        return fail(path, "missing or empty records");
    std::size_t prof_records = 0;
    for (std::size_t i = 0; i < records->size(); ++i) {
        const ztx::Json &rec = records->at(i);
        // History-checker shape: a record produced with the op log
        // on (op_log=true) must carry exactly one checker section —
        // order_infer (inferred order) or lincheck (fallback /
        // truncated). Both, neither, or a section without op_log
        // all mean the producer mis-wired the oracles.
        const ztx::Json *oplog = rec.find("op_log");
        const bool logged = oplog && oplog->boolean();
        const bool has_lc = rec.contains("lincheck");
        const bool has_oi = rec.contains("order_infer");
        if (logged && has_lc == has_oi)
            return fail(path, has_lc
                                  ? "op_log record with both "
                                    "lincheck and order_infer"
                                  : "op_log record with neither "
                                    "lincheck nor order_infer");
        if (!logged && (has_lc || has_oi))
            return fail(path, "checker section on a record "
                              "without op_log=true");
        // Chaos records archive the campaign that produced them;
        // a malformed plan section means replaying the record is
        // impossible, so it fails validation outright.
        if (const ztx::Json *plan = rec.find("fault_plan"))
            if (const char *why = checkFaultPlan(*plan))
                return fail(path, why);
        // Litmus records carry the enumeration verdict; a malformed
        // one could let a capped or violating corpus slip past CI.
        if (const ztx::Json *lit = rec.find("litmus"))
            if (const char *why = checkLitmus(*lit))
                return fail(path, why);
        // Phase-profiler snapshots: shape-checked wherever present;
        // --require-prof additionally demands at least one record
        // with an enabled, populated snapshot (the perf_smoke
        // contract — see bench/perf_smoke.cmake).
        if (const ztx::Json *prof = rec.find("prof")) {
            if (const char *why = checkProf(*prof))
                return fail(path, why);
            const ztx::Json *sites = prof->find("sites");
            if (prof->find("enabled")->boolean() &&
                sites->size() > 0)
                prof_records += 1;
        }
    }
    if (require_prof && prof_records == 0)
        return fail(path, "--require-prof: no record carries an "
                          "enabled prof snapshot with sites");
    const ztx::Json *speed = doc->find("sim_speed");
    if (!speed)
        return fail(path, "missing sim_speed");
    for (const char *key :
         {"host_seconds", "sim_cycles", "instructions",
          "sim_cycles_per_host_second",
          "instructions_per_host_second"}) {
        if (!speed->contains(key))
            return fail(path, "incomplete sim_speed");
    }
    std::printf("json_check: %s: OK (%zu records)\n", path,
                records->size());
    return 0;
}
