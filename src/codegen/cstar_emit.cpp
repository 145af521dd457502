#include "codegen/cstar_emit.hpp"

#include <map>
#include <sstream>
#include <unordered_map>

#include "codegen/pretty.hpp"
#include "support/str.hpp"
#include "uclang/symbols.hpp"

namespace uc::codegen {

using namespace lang;

namespace {

// One C* domain per distinct array shape.
struct DomainInfo {
  std::string name;
  std::vector<std::int64_t> dims;
  std::vector<const Symbol*> members;  // UC arrays living in this domain
};

class Emitter {
 public:
  explicit Emitter(const CompilationUnit& unit) : unit_(unit) {}

  std::string run() {
    collect_domains();
    for (const auto& [dims, dom] : domains_) emit_domain(dom);
    for (const auto& item : unit_.program->items) {
      if (item.decl && item.decl->kind == StmtKind::kMapSection) {
        line(0, "/* data mappings have no C* equivalent; handled by "
                "compiler directives */");
      }
      if (item.func) emit_function(*item.func);
    }
    return out_.str();
  }

 private:
  void collect_domains() {
    for (const Symbol* g : unit_.sema.globals) {
      if (!g->type.is_array()) continue;
      auto& dom = domains_[g->type.dims];
      if (dom.name.empty()) {
        dom.name = "UC_DOM" + std::to_string(domains_.size());
        dom.dims = g->type.dims;
      }
      dom.members.push_back(g);
      array_domain_[g] = &dom;
    }
  }

  void emit_domain(const DomainInfo& dom) {
    line(0, "domain " + dom.name + " {");
    // Grid coordinates, as in the appendix's PATH { int i, j, ... }.
    std::string coords = "  int ";
    for (std::size_t k = 0; k < dom.dims.size(); ++k) {
      if (k != 0) coords += ", ";
      coords += coord_name(k);
    }
    line(0, coords + ";");
    for (const Symbol* m : dom.members) {
      line(0, "  " + std::string(scalar_kind_name(m->type.scalar)) + " " +
                  m->name + ";");
    }
    std::string shape;
    for (auto d : dom.dims) shape += "[" + std::to_string(d) + "]";
    line(0, "} " + instance_name(dom) + shape + ";");
    line(0, "");
    // The appendix's offset-decoding init().
    line(0, "void " + dom.name + "::init() {");
    line(0, "  int offset = (this - &" + instance_name(dom) + zero_index(dom) +
                ");");
    for (std::size_t k = dom.dims.size(); k-- > 0;) {
      std::string rhs = "offset";
      if (k + 1 < dom.dims.size()) {
        rhs = "(offset";
        for (std::size_t m = dom.dims.size() - 1; m > k; --m) {
          rhs += " / " + std::to_string(dom.dims[m]);
        }
        rhs += ")";
      }
      line(0, "  " + coord_name(k) + " = " + rhs + " % " +
                  std::to_string(dom.dims[k]) + ";");
    }
    line(0, "}");
    line(0, "");
  }

  static std::string coord_name(std::size_t axis) {
    static const char* names[] = {"i", "j", "k", "l"};
    if (axis < 4) return names[axis];
    return "c" + std::to_string(axis);
  }

  std::string instance_name(const DomainInfo& dom) {
    std::string n = dom.name;
    for (auto& c : n) c = static_cast<char>(std::tolower(c));
    return n;
  }

  static std::string zero_index(const DomainInfo& dom) {
    std::string out;
    for (std::size_t k = 0; k < dom.dims.size(); ++k) out += "[0]";
    return out;
  }

  void emit_function(const FuncDecl& fn) {
    std::string head = scalar_kind_name(fn.return_scalar);
    head += " " + fn.name + "(";
    for (std::size_t k = 0; k < fn.params.size(); ++k) {
      if (k != 0) head += ", ";
      head += scalar_kind_name(fn.params[k].scalar);
      head += " " + fn.params[k].name;
      for (std::size_t d = 0; d < fn.params[k].array_rank; ++d) head += "[]";
    }
    head += ") {";
    line(0, head);
    if (fn.body) {
      for (const auto& stmt : fn.body->body) emit_stmt(*stmt, 1);
    }
    line(0, "}");
    line(0, "");
  }

  // The domain a par construct runs over: the one whose members it writes.
  const DomainInfo* domain_of_construct(const UcConstructStmt& stmt) {
    const DomainInfo* found = nullptr;
    auto scan_expr = [&](auto&& self, const Expr& e) -> void {
      if (e.kind == ExprKind::kAssign) {
        const auto& a = static_cast<const AssignExpr&>(e);
        if (a.lhs->kind == ExprKind::kSubscript) {
          const auto& sub = static_cast<const SubscriptExpr&>(*a.lhs);
          if (sub.base->kind == ExprKind::kIdent) {
            auto it = array_domain_.find(
                static_cast<const IdentExpr&>(*sub.base).symbol);
            if (it != array_domain_.end() && found == nullptr) {
              found = it->second;
            }
          }
        }
        self(self, *a.rhs);
      }
    };
    auto scan_stmt = [&](auto&& self, const Stmt& s) -> void {
      if (s.kind == StmtKind::kExpr) {
        scan_expr(scan_expr, *static_cast<const ExprStmt&>(s).expr);
      } else if (s.kind == StmtKind::kCompound) {
        for (const auto& c : static_cast<const CompoundStmt&>(s).body) {
          self(self, *c);
        }
      }
    };
    for (const auto& block : stmt.blocks) scan_stmt(scan_stmt, *block.body);
    if (stmt.others) scan_stmt(scan_stmt, *stmt.others);
    return found;
  }

  void emit_stmt(const Stmt& stmt, int indent) {
    switch (stmt.kind) {
      case StmtKind::kUcConstruct: {
        const auto& u = static_cast<const UcConstructStmt&>(stmt);
        emit_construct(u, indent);
        return;
      }
      case StmtKind::kCompound:
        line(indent, "{");
        for (const auto& c : static_cast<const CompoundStmt&>(stmt).body) {
          emit_stmt(*c, indent + 1);
        }
        line(indent, "}");
        return;
      case StmtKind::kIndexSetDecl: {
        // Index sets vanish: C* parallelism is implicit in the domain.
        auto text = print_stmt(stmt);
        auto first_line = text.substr(0, text.find('\n'));
        line(indent, "/* " + std::string(support::trim(first_line)) + " */");
        return;
      }
      case StmtKind::kMapSection:
        line(indent, "/* data mappings have no C* equivalent; handled by "
                     "compiler directives */");
        return;
      default: {
        // Plain C statements survive verbatim.
        std::istringstream text(print_stmt(stmt));
        std::string l;
        while (std::getline(text, l)) line(indent, l);
        return;
      }
    }
  }

  void emit_construct(const UcConstructStmt& u, int indent) {
    const DomainInfo* dom = domain_of_construct(u);
    switch (u.op) {
      case UcOp::kSeq: {
        // seq -> front-end counting loop (one loop variable per set); the
        // body statements (often nested par constructs) follow inside.
        for (const auto& name : u.index_sets) {
          line(indent, "for (" + elem_of(name) + " = " + set_lo(name) +
                           "; " + elem_of(name) + " <= " + set_hi(name) +
                           "; " + elem_of(name) + "++)");
        }
        for (const auto& block : u.blocks) {
          if (block.pred) {
            line(indent + 1, "if (" + print_expr(*block.pred) + ")");
            emit_stmt(*block.body, indent + 2);
          } else {
            emit_stmt(*block.body, indent + 1);
          }
        }
        if (u.others) {
          line(indent + 1, "else  /* others */");
          emit_stmt(*u.others, indent + 2);
        }
        return;
      }
      case UcOp::kPar: {
        if (u.starred) {
          line(indent, "do {  /* *par: iterate while any instance active */");
          emit_parallel_block(u, dom, indent + 1);
          line(indent, "} while (|= (" + active_cond(u) + "));");
          return;
        }
        emit_parallel_block(u, dom, indent);
        return;
      }
      case UcOp::kOneof:
        line(indent, "/* oneof: pick one enabled branch, unfair */");
        emit_parallel_block(u, dom, indent);
        return;
      case UcOp::kSolve:
        line(indent,
             "/* solve: body emitted once; the fire-when-ready order of "
             "paper 3.6 is not expressed in C* */");
        emit_parallel_block(u, dom, indent);
        return;
    }
  }

  std::string active_cond(const UcConstructStmt& u) {
    std::string out;
    for (const auto& block : u.blocks) {
      if (!block.pred) continue;
      if (!out.empty()) out += " || ";
      out += print_expr(*block.pred);
    }
    return out.empty() ? "0" : out;
  }

  void emit_parallel_block(const UcConstructStmt& u, const DomainInfo* dom,
                           int indent) {
    const std::string header =
        dom != nullptr ? "[domain " + dom->name + "].{"
                       : "[domain UC_SCALARS].{";
    line(indent, header);
    for (const auto& block : u.blocks) {
      if (block.pred) {
        line(indent + 1, "where (" + print_expr(*block.pred) + ") {");
        emit_member_stmt(*block.body, indent + 2);
        line(indent + 1, "}");
      } else {
        emit_member_stmt(*block.body, indent + 1);
      }
    }
    if (u.others) {
      line(indent + 1, "else {  /* others */");
      emit_member_stmt(*u.others, indent + 2);
      line(indent + 1, "}");
    }
    line(indent, "}");
  }

  // Parallel member statements: assignments whose min/max reduction RHS
  // becomes the C* combine operators, everything else printed as-is.
  void emit_member_stmt(const Stmt& s, int indent) {
    switch (s.kind) {
      case StmtKind::kCompound:
        for (const auto& c : static_cast<const CompoundStmt&>(s).body) {
          emit_member_stmt(*c, indent);
        }
        return;
      case StmtKind::kExpr: {
        const auto& e = *static_cast<const ExprStmt&>(s).expr;
        if (e.kind == ExprKind::kAssign) {
          const auto& a = static_cast<const AssignExpr&>(e);
          if (a.op == AssignOp::kAssign &&
              a.rhs->kind == ExprKind::kReduce) {
            const auto& r = static_cast<const ReduceExpr&>(*a.rhs);
            if ((r.op == ReduceKind::kMin || r.op == ReduceKind::kMax) &&
                r.arms.size() == 1 && !r.arms[0].pred && !r.others) {
              // lhs = $<(K; e)  ->  for (k...) lhs <?= e;
              const char* comb = r.op == ReduceKind::kMin ? "<?=" : ">?=";
              for (const auto& set : r.index_sets) {
                line(indent, "for (" + elem_of(set) + " = " + set_lo(set) +
                                 "; " + elem_of(set) + " <= " + set_hi(set) +
                                 "; " + elem_of(set) + "++)");
              }
              line(indent + 1, print_expr(*a.lhs) + " " + comb + " " +
                                   print_expr(*r.arms[0].value) + ";");
              return;
            }
          }
        }
        line(indent, print_expr(e) + ";");
        return;
      }
      default: {
        std::istringstream text(print_stmt(s));
        std::string l;
        while (std::getline(text, l)) line(indent, l);
        return;
      }
    }
  }

  std::string elem_of(const std::string& set_name) {
    if (auto* def = find_set(set_name)) return def->elem_name;
    return set_name + "_elem";
  }
  std::string set_lo(const std::string& set_name) {
    if (auto* def = find_set(set_name)) {
      if (def->symbol != nullptr && def->symbol->index_set != nullptr &&
          !def->symbol->index_set->values.empty()) {
        return std::to_string(def->symbol->index_set->values.front());
      }
    }
    return "0";
  }
  std::string set_hi(const std::string& set_name) {
    if (auto* def = find_set(set_name)) {
      if (def->symbol != nullptr && def->symbol->index_set != nullptr &&
          !def->symbol->index_set->values.empty()) {
        return std::to_string(def->symbol->index_set->values.back());
      }
    }
    return "0";
  }

  const IndexSetDef* find_set(const std::string& name) {
    for (const auto& item : unit_.program->items) {
      const IndexSetDef* found = find_set_in(item.decl.get(), name);
      if (found) return found;
      if (item.func && item.func->body) {
        for (const auto& s : item.func->body->body) {
          found = find_set_in(s.get(), name);
          if (found) return found;
        }
      }
    }
    return nullptr;
  }

  static const IndexSetDef* find_set_in(const Stmt* s,
                                        const std::string& name) {
    if (s == nullptr || s->kind != StmtKind::kIndexSetDecl) return nullptr;
    for (const auto& def : static_cast<const IndexSetDeclStmt*>(s)->defs) {
      if (def.set_name == name) return &def;
    }
    return nullptr;
  }

  void line(int indent, const std::string& text) {
    for (int k = 0; k < indent; ++k) out_ << "  ";
    out_ << text << "\n";
  }

  const CompilationUnit& unit_;
  std::map<std::vector<std::int64_t>, DomainInfo> domains_;
  std::unordered_map<const Symbol*, const DomainInfo*> array_domain_;
  std::ostringstream out_;
};

}  // namespace

std::string emit_cstar(const CompilationUnit& unit) {
  return Emitter(unit).run();
}

}  // namespace uc::codegen
