#include "core/vadalog_bridge.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/similarity.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

using vadalog::ActionContext;
using vadalog::Database;

/// Number of labelled-null values inside a VSet pairset.
size_t NullsIn(const Value& vset) {
  if (!vset.is_collection()) return 0;
  size_t count = 0;
  for (const Value& pair : vset.items()) {
    if (pair.is_list() && pair.items().size() == 2 && pair.items()[1].is_null()) {
      ++count;
    }
  }
  return count;
}

/// Value for key `k` in a VSet; nullptr if absent.
const Value* VsetGet(const Value& vset, const Value& k) {
  for (const Value& pair : vset.items()) {
    if (pair.is_list() && pair.items().size() == 2 && pair.items()[0].Equals(k)) {
      return &pair.items()[1];
    }
  }
  return nullptr;
}

/// Do two VSets match on every shared key, under the chosen semantics?
bool VsetsMatch(const Value& a, const Value& b, bool maybe_match) {
  for (const Value& pair : a.items()) {
    if (!pair.is_list() || pair.items().size() != 2) continue;
    const Value* other = VsetGet(b, pair.items()[0]);
    if (other == nullptr) continue;
    const bool ok = maybe_match ? pair.items()[1].MaybeEquals(*other)
                                : pair.items()[1].Equals(*other);
    if (!ok) return false;
  }
  return true;
}

/// Latest (most anonymized) VSet version per tuple id, for one microdata DB.
std::map<int64_t, Value> LatestVersions(const Database& db, const Value& m) {
  std::map<int64_t, Value> latest;
  for (const auto& row : db.Rows("tuple")) {
    if (row.size() != 3 || !row[0].Equals(m) || !row[1].is_int()) continue;
    const int64_t id = row[1].as_int();
    auto it = latest.find(id);
    if (it == latest.end() || NullsIn(row[2]) > NullsIn(it->second)) {
      latest[id] = row[2];
    }
  }
  return latest;
}

}  // namespace

Status ValidateBridgeMeasure(const std::string& measure) {
  if (measure == "k-anonymity" || measure == "kanonymity" ||
      measure == "reidentification" || measure == "re-identification") {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "the declarative cycle implements only the k-anonymity and "
      "reidentification measures, got \"" + measure + "\"");
}

VadalogBridge::VadalogBridge(BridgeOptions options) : options_(std::move(options)) {
  // #risk and DecodeRelease test the canonical spellings.
  if (options_.risk_measure == "re-identification") {
    options_.risk_measure = "reidentification";
  } else if (options_.risk_measure == "kanonymity") {
    options_.risk_measure = "k-anonymity";
  }
}

void VadalogBridge::EncodeMicrodata(const MicrodataTable& table,
                                    Database* db) const {
  const Value m = Value::String(table.name());
  db->AddFact("microdb", {m});
  for (const Attribute& a : table.attributes()) {
    db->AddFact("att", {m, Value::String(a.name)});
    db->AddFact("cat", {m, Value::String(a.name),
                        Value::String(AttributeCategoryToString(a.category))});
  }
  const auto qis = table.QuasiIdentifierColumns();
  const auto identifiers = table.ColumnsWithCategory(AttributeCategory::kIdentifier);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> pairs;
    pairs.reserve(qis.size());
    for (const size_t c : qis) {
      pairs.push_back(Value::List(
          {Value::String(table.attributes()[c].name), table.cell(r, c)}));
    }
    const Value id = Value::Int(static_cast<int64_t>(r));
    db->AddFact("tuple", {m, id, Value::Set(std::move(pairs))});
    db->AddFact("weight", {m, id, Value::Double(table.RowWeight(r))});
    // Entity names for #rel joins (Algorithm 9); the raw identifier values
    // stay in the extensional component but never reach tupleA.
    if (!identifiers.empty()) {
      db->AddFact("entity",
                  {m, id, Value::String(table.cell(r, identifiers[0]).ToString())});
    }
  }
}

void VadalogBridge::RegisterExternals(vadalog::Engine* engine,
                                      const OwnershipGraph* graph) const {
  const BridgeOptions options = options_;

  // --- #risk(M, I, VSet, R): the polymorphic risk plug-in. ---
  engine->externals()->RegisterPredicate(
      "#risk",
      [options](const std::vector<std::optional<Value>>& args, const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        obs::Span span("risk.external");
        if (args.size() != 4) {
          return Status::InvalidArgument("#risk expects (M, I, VSet, R)");
        }
        if (!args[0] || !args[1] || !args[2]) {
          return Status::FailedPrecondition("#risk needs M, I and VSet bound");
        }
        const Value& m = *args[0];
        const Value& vset = *args[2];
        const auto latest = LatestVersions(db, m);
        double count = 0.0;
        double weight_sum = 0.0;
        std::unordered_map<int64_t, double> weights;
        for (const auto& row : db.Rows("weight")) {
          if (row.size() == 3 && row[0].Equals(m) && row[1].is_int()) {
            weights[row[1].as_int()] = row[2].as_double();
          }
        }
        for (const auto& [id, other] : latest) {
          if (VsetsMatch(vset, other, options.maybe_match)) {
            count += 1.0;
            auto w = weights.find(id);
            weight_sum += w == weights.end() ? 1.0 : w->second;
          }
        }
        double risk;
        if (options.risk_measure == "reidentification") {
          risk = weight_sum <= 1.0 ? 1.0 : std::min(1.0, 1.0 / weight_sum);
        } else {  // k-anonymity
          risk = count < static_cast<double>(options.k) ? 1.0 : 0.0;
        }
        return std::vector<std::vector<Value>>{
            {m, *args[1], vset, Value::Double(risk)}};
      });

  // --- #anonymize(M, I, VSet): one local-suppression step, choosing the
  // quasi-identifier with the widest risk-reduction reach ("most risky
  // first", Section 4.4). ---
  engine->externals()->RegisterAction(
      "#anonymize",
      [options](const std::vector<Value>& args, ActionContext* ctx) -> Status {
        obs::Span span("anonymize.external");
        if (args.size() != 3) {
          return Status::InvalidArgument("#anonymize expects (M, I, VSet)");
        }
        const Value& m = args[0];
        const Value& id = args[1];
        const Value& vset = args[2];
        if (!vset.is_collection() || !id.is_int()) {
          return Status::InvalidArgument("#anonymize: malformed tuple");
        }
        // Only anonymize the latest version of the tuple; a stale re-trigger
        // on an older VSet would fork divergent versions.
        const auto latest = LatestVersions(ctx->db(), m);
        auto it = latest.find(id.as_int());
        if (it != latest.end() && NullsIn(it->second) > NullsIn(vset)) {
          return Status::OK();
        }
        // Score every non-null key by the group the tuple would reach if
        // that key were wildcarded; suppress the best one.
        const std::vector<Value>& pairs = vset.items();
        int best = -1;
        double best_reach = -1.0;
        for (size_t p = 0; p < pairs.size(); ++p) {
          if (!pairs[p].is_list() || pairs[p].items().size() != 2) continue;
          if (pairs[p].items()[1].is_null()) continue;
          std::vector<Value> candidate = pairs;
          candidate[p] = Value::List({pairs[p].items()[0], Value::Null(0)});
          const Value probe = Value::Set(candidate);
          double reach = 0.0;
          for (const auto& [other_id, other] : latest) {
            (void)other_id;
            if (VsetsMatch(probe, other, options.maybe_match)) reach += 1.0;
          }
          if (reach > best_reach) {
            best_reach = reach;
            best = static_cast<int>(p);
          }
        }
        if (best < 0) return Status::OK();  // Everything already suppressed.
        std::vector<Value> next = pairs;
        next[best] = Value::List({pairs[best].items()[0], ctx->FreshNull()});
        ctx->Emit("tuple", {m, id, Value::Set(std::move(next))});
        return Status::OK();
      });

  // --- #rel(X, Y): same-control-cluster relation (reflexive). ---
  std::shared_ptr<std::unordered_map<std::string, int>> clusters;
  if (graph != nullptr) {
    clusters = std::make_shared<std::unordered_map<std::string, int>>(
        graph->ComputeClusters());
  }
  engine->externals()->RegisterPredicate(
      "#rel",
      [clusters](const std::vector<std::optional<Value>>& args, const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        (void)db;
        if (args.size() != 2) return Status::InvalidArgument("#rel expects (X, Y)");
        if (!args[0]) return Status::FailedPrecondition("#rel needs X bound");
        std::vector<std::vector<Value>> rows;
        const Value& x = *args[0];
        if (args[1]) {
          // Fully bound: test.
          if (x.Equals(*args[1])) {
            rows.push_back({x, *args[1]});
          } else if (clusters) {
            auto a = clusters->find(x.ToString());
            auto b = clusters->find(args[1]->ToString());
            if (a != clusters->end() && b != clusters->end() && a->second == b->second) {
              rows.push_back({x, *args[1]});
            }
          }
          return rows;
        }
        // Enumerate cluster members of x.
        rows.push_back({x, x});
        if (clusters) {
          auto a = clusters->find(x.ToString());
          if (a != clusters->end()) {
            for (const auto& [name, cid] : *clusters) {
              if (cid == a->second && name != x.ToString()) {
                rows.push_back({x, Value::String(name)});
              }
            }
          }
        }
        return rows;
      });

  // --- #similar(A, B): the pluggable ∼ of Algorithm 1. ---
  engine->externals()->RegisterPredicate(
      "#similar",
      [](const std::vector<std::optional<Value>>& args, const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        (void)db;
        if (args.size() != 2) return Status::InvalidArgument("#similar expects (A, B)");
        if (!args[0] || !args[1]) {
          return Status::FailedPrecondition("#similar needs both names bound");
        }
        if (!args[0]->is_string() || !args[1]->is_string()) {
          return std::vector<std::vector<Value>>{};
        }
        if (AttributeNameSimilarity(args[0]->as_string(), args[1]->as_string()) >=
            0.82) {
          return std::vector<std::vector<Value>>{{*args[0], *args[1]}};
        }
        return std::vector<std::vector<Value>>{};
      });
}

std::string VadalogBridge::CycleProgram() const {
  std::ostringstream os;
  os << "% Anonymization cycle (Algorithm 2, Rules 2-3).\n";
  os << "#anonymize(M, I, VSet) :- tuple(M, I, VSet), #risk(M, I, VSet, R), R > "
     << options_.threshold << ".\n";
  os << "tupleA(M, I, VSet) :- tuple(M, I, VSet), #risk(M, I, VSet, R), R <= "
     << options_.threshold << ".\n";
  os << "@output(\"tupleA\").\n";
  return os.str();
}

std::string VadalogBridge::EnhancedCycleProgram() const {
  std::ostringstream os;
  os << "% Enhanced anonymization cycle (Algorithm 9, Rules 2-4).\n";
  os << "clusterrisk(M, I1, R) :- entity(M, I1, N1), entity(M, I2, N2),\n"
     << "                         #rel(N1, N2), tuple(M, I2, VSet2),\n"
     << "                         #risk(M, I2, VSet2, Q), S = 1 - Q,\n"
     << "                         P = mprod(S, <I2>), R = 1 - P.\n";
  os << "#anonymize(M, I, VSet) :- tuple(M, I, VSet), clusterrisk(M, I, R), R > "
     << options_.threshold << ".\n";
  // A version is releasable when the cluster is settled AND the version
  // itself carries acceptable base risk (the per-version refinement that
  // keeps the decode minimal, as in the basic cycle).
  os << "tupleA(M, I, VSet) :- tuple(M, I, VSet), clusterrisk(M, I, R), R <= "
     << options_.threshold << ", #risk(M, I, VSet, Q), Q <= " << options_.threshold
     << ".\n";
  os << "@output(\"tupleA\").\n";
  return os.str();
}

std::string VadalogBridge::CategorizationProgram() {
  return R"prog(% Algorithm 1: attribute categorization.
% Rule 2: borrow the category of a similar known attribute.
cat(M, A, C) :- att(M, A), expbase(A1, C), #similar(A, A1).
% Rule 3: recursive feedback into the experience base.
expbase(A, C) :- cat(M, A, C).
% Rule 1: every attribute gets some category (existential labelled null,
% unified with the concrete category by the EGD when one is derivable).
cat(M, A, C) :- att(M, A).
% Rule 4 (EGD): one category per attribute.
C1 = C2 :- cat(M, A, C1), cat(M, A, C2).
@output("cat").
)prog";
}

namespace {

/// Decodes the engine's tupleA facts back into a released table; shared by
/// the basic and enhanced declarative cycles.
MicrodataTable DecodeRelease(const Database& db, const MicrodataTable& table,
                             const BridgeOptions& options);

}  // namespace

Result<MicrodataTable> VadalogBridge::RunDeclarativeCycle(
    const MicrodataTable& table, const OwnershipGraph* graph,
    vadalog::RunStats* stats) const {
  obs::Span span("bridge.declarative_cycle");
  VADASA_RETURN_NOT_OK(ValidateBridgeMeasure(options_.risk_measure));
  vadalog::EngineOptions engine_options;
  engine_options.track_provenance = true;
  vadalog::Engine engine(engine_options);
  RegisterExternals(&engine, graph);

  Database db;
  EncodeMicrodata(table, &db);
  VADASA_ASSIGN_OR_RETURN(const vadalog::RunStats run,
                          vadalog::RunSource(CycleProgram(), &db, &engine));
  if (stats != nullptr) *stats = run;
  return DecodeRelease(db, table, options_);
}

Result<MicrodataTable> VadalogBridge::RunDeclarativeEnhancedCycle(
    const MicrodataTable& table, const OwnershipGraph& graph,
    vadalog::RunStats* stats) const {
  obs::Span span("bridge.declarative_enhanced_cycle");
  VADASA_RETURN_NOT_OK(ValidateBridgeMeasure(options_.risk_measure));
  vadalog::EngineOptions engine_options;
  engine_options.track_provenance = true;
  vadalog::Engine engine(engine_options);
  RegisterExternals(&engine, &graph);

  Database db;
  EncodeMicrodata(table, &db);
  VADASA_ASSIGN_OR_RETURN(const vadalog::RunStats run,
                          vadalog::RunSource(EnhancedCycleProgram(), &db, &engine));
  if (stats != nullptr) *stats = run;
  return DecodeRelease(db, table, options_);
}

namespace {

MicrodataTable DecodeRelease(const Database& db, const MicrodataTable& table,
                             const BridgeOptions& options) {
  // Candidate versions per tuple: the accepted (tupleA) versions ordered by
  // null count ascending, then the most anonymized version seen at all as a
  // safe fallback. Starting from the least-suppressed candidates, the chosen
  // combination is validated as a whole and risky rows are pushed to their
  // next (more suppressed) candidate: per-tuple "fewest nulls" alone is
  // unsound, because two originals may have validated only against each
  // other's suppressed versions.
  const Value m = Value::String(table.name());
  std::map<int64_t, std::vector<Value>> candidates;
  for (const auto& row : db.Rows("tupleA")) {
    if (row.size() != 3 || !row[0].Equals(m) || !row[1].is_int()) continue;
    candidates[row[1].as_int()].push_back(row[2]);
  }
  const auto latest = LatestVersions(db, m);
  for (const auto& [id, version] : latest) {
    candidates[id].push_back(version);
  }
  for (auto& [id, versions] : candidates) {
    (void)id;
    std::sort(versions.begin(), versions.end(), [](const Value& a, const Value& b) {
      return NullsIn(a) < NullsIn(b);
    });
  }
  std::map<int64_t, size_t> pick;
  for (const auto& [id, versions] : candidates) {
    (void)versions;
    pick[id] = 0;
  }
  // Validate the assembled combination; advance risky rows. Each advance
  // strictly increases some pick index, so this terminates.
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [id, index] : pick) {
      const auto& versions = candidates[id];
      double mass = 0.0;
      for (const auto& [other_id, other_index] : pick) {
        if (!VsetsMatch(versions[index], candidates[other_id][other_index],
                        options.maybe_match)) {
          continue;
        }
        if (options.risk_measure == "reidentification") {
          const auto& weights = db.Rows("weight");
          for (const auto& w : weights) {
            if (w[1].is_int() && w[1].as_int() == other_id) mass += w[2].as_double();
          }
        } else {
          mass += 1.0;
        }
      }
      const bool risky = options.risk_measure == "reidentification"
                             ? (mass <= 1.0 || 1.0 / mass > options.threshold)
                             : mass < static_cast<double>(options.k);
      if (risky && index + 1 < versions.size()) {
        ++index;
        changed = true;
      }
    }
  }

  MicrodataTable out = table;
  const auto qis = out.QuasiIdentifierColumns();
  for (size_t r = 0; r < out.num_rows(); ++r) {
    auto it = pick.find(static_cast<int64_t>(r));
    if (it == pick.end()) continue;
    const Value& vset = candidates[it->first][it->second];
    for (const size_t c : qis) {
      const Value* v = VsetGet(vset, Value::String(out.attributes()[c].name));
      if (v != nullptr) out.set_cell(r, c, *v);
    }
    // Direct identifiers are dropped from the release (Algorithm 2, Rule 1).
    for (const size_t c : out.ColumnsWithCategory(AttributeCategory::kIdentifier)) {
      out.set_cell(r, c, Value::String("<dropped>"));
    }
  }
  return out;
}

}  // namespace

}  // namespace vadasa::core
