#include "driver/compiler.h"

#include "driver/pipeline.h"
#include "lang/sema.h"

namespace fsopt {

Compiled compile_source(std::string_view source,
                        const CompileOptions& options) {
  return run_back(run_front(source, options.overrides), options);
}

// The pre-refactor compile path, retained verbatim as the regression
// reference for the pass pipeline (see driver/pipeline.h).  Do not
// "simplify" this to call the pipeline — its whole value is being an
// independent implementation to diff against.
Compiled compile_source_reference(std::string_view source,
                                  const CompileOptions& options) {
  Compiled out;
  out.options = options;
  DiagnosticEngine diags;
  out.prog = parse_and_check(source, diags, options.overrides);
  out.summary = analyze_program(*out.prog);
  out.report = classify_sharing(out.summary);
  if (options.plan != nullptr) {
    out.transforms = *options.plan;
  } else if (options.optimize) {
    out.transforms = decide_transforms(out.report, out.summary,
                                       options.block_size, options.decision);
  }
  out.layout = build_layout(*out.prog, out.transforms, options.block_size);
  out.code = compile_code(*out.prog, out.layout);
  return out;
}

i64 Compiled::address_of(const std::string& global, const std::string& field,
                         const std::vector<i64>& indices) const {
  const GlobalSym* g = prog->find_global(global);
  FSOPT_CHECK(g != nullptr, "no such global: " + global);
  int fi = -1;
  if (!field.empty()) {
    FSOPT_CHECK(g->elem.is_struct, global + " is not a struct array");
    fi = g->elem.strct->field_index(field);
    FSOPT_CHECK(fi >= 0, "no such field: " + field);
  }
  ResolvedAccess ra = layout.resolve(*g, fi);
  FSOPT_CHECK(indices.size() == ra.dims.size(),
              "wrong number of indices for " + global);
  i64 addr = ra.base + ra.const_off;
  for (size_t i = 0; i < indices.size(); ++i)
    addr += ra.dims[i].apply(indices[i]);
  return addr;
}

ScalarKind Compiled::scalar_kind_of(const std::string& global,
                                    const std::string& field) const {
  const GlobalSym* g = prog->find_global(global);
  FSOPT_CHECK(g != nullptr, "no such global: " + global);
  if (field.empty()) {
    FSOPT_CHECK(!g->elem.is_struct, global + " is a struct array");
    return g->elem.scalar;
  }
  int fi = g->elem.strct->field_index(field);
  FSOPT_CHECK(fi >= 0, "no such field: " + field);
  return g->elem.strct->fields[static_cast<size_t>(fi)].kind;
}

}  // namespace fsopt
