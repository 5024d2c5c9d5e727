// Fixture: seeded `scratch-local` violations. The test lints this file
// under synthetic paths: stamped traversal scratch may not be a function
// local in src/; members, namespace-scope objects, static and thread_local
// locals and references are legal.
#include "graph/scratch.h"

namespace alvc::graph {

VertexSet g_members;  // legal: namespace scope

struct Owner {
  VertexSet allowed_;  // legal: a member
  VertexIndexMap index_{};  // legal: a member
  void route() {
    VertexSet allowed;  // violation
    allowed.insert(1);
  }
};

template <class T>
void walk(T& owner, VertexSet& shared) {
  TraversalScratch scratch;  // violation
  alvc::graph::VertexIndexMap map;  // violation
  VertexSet& alias = shared;  // legal: a reference
  static VertexSet once;  // legal: static storage
  thread_local TraversalScratch per_thread;  // legal: static storage
  const auto lambda = [&] {
    AlBuildScratch build;  // violation
  };
  if (owner.ok()) {
    VertexSet nested{};  // violation
  }
  struct Local {
    VertexSet member;  // violation: a local type's member lives per call
  };
  VertexSet suppressed;  // alvc-lint: allow(scratch-local)
}

}  // namespace alvc::graph
