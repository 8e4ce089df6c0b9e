#include "refeval.h"

#include <stdexcept>

namespace pb {

using gkll::CellKind;
using gkll::GateId;
using gkll::NetId;

RefEval::RefEval(const gkll::Netlist& comb) : nl_(comb) {
  // Kahn's algorithm over driver -> reader edges, one edge per fanin pin.
  const std::size_t n = nl_.numGates();
  std::vector<int> pending(n, 0);
  std::vector<std::vector<GateId>> readers(n);
  std::vector<GateId> ready;
  for (GateId g = 0; g < n; ++g) {
    const gkll::Gate& gate = nl_.gate(g);
    if (gate.out == gkll::kNoNet) continue;  // removed gate
    if (gate.kind == CellKind::kDff)
      throw std::invalid_argument("RefEval: netlist is sequential");
    for (NetId in : gate.fanin) {
      const GateId d = nl_.net(in).driver;
      if (d == gkll::kNoGate) continue;
      readers[d].push_back(g);
      ++pending[g];
    }
    if (pending[g] == 0) ready.push_back(g);
  }
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    order_.push_back(g);
    for (GateId r : readers[g])
      if (--pending[r] == 0) ready.push_back(r);
  }
}

std::vector<bool> RefEval::eval(const std::vector<bool>& inputs) const {
  std::vector<char> v(nl_.numNets(), 0);
  const auto& pis = nl_.inputs();
  if (inputs.size() != pis.size())
    throw std::invalid_argument("RefEval: input width mismatch");
  for (std::size_t i = 0; i < pis.size(); ++i) v[pis[i]] = inputs[i];
  for (GateId g : order_) {
    const gkll::Gate& gate = nl_.gate(g);
    const auto in = [&](std::size_t i) { return v[gate.fanin[i]] != 0; };
    const std::size_t k = gate.fanin.size();
    bool allAnd = true, anyOr = false;
    for (std::size_t i = 0; i < k; ++i) {
      allAnd = allAnd && in(i);
      anyOr = anyOr || in(i);
    }
    bool out = false;
    switch (gate.kind) {
      case CellKind::kInput:
        continue;  // driven by the pattern
      case CellKind::kConst0: out = false; break;
      case CellKind::kConst1: out = true; break;
      case CellKind::kBuf:
      case CellKind::kDelay: out = in(0); break;
      case CellKind::kInv: out = !in(0); break;
      case CellKind::kAnd2:
      case CellKind::kAnd3:
      case CellKind::kAnd4: out = allAnd; break;
      case CellKind::kNand2:
      case CellKind::kNand3:
      case CellKind::kNand4: out = !allAnd; break;
      case CellKind::kOr2:
      case CellKind::kOr3:
      case CellKind::kOr4: out = anyOr; break;
      case CellKind::kNor2:
      case CellKind::kNor3:
      case CellKind::kNor4: out = !anyOr; break;
      case CellKind::kXor2: out = in(0) != in(1); break;
      case CellKind::kXnor2: out = in(0) == in(1); break;
      case CellKind::kMux2: out = in(0) ? in(2) : in(1); break;
      case CellKind::kAoi21: out = !((in(0) && in(1)) || in(2)); break;
      case CellKind::kOai21: out = !((in(0) || in(1)) && in(2)); break;
      case CellKind::kLut: {
        unsigned idx = 0;
        for (std::size_t i = 0; i < k; ++i) idx |= (in(i) ? 1u : 0u) << i;
        out = (gate.lutMask >> idx) & 1u;
        break;
      }
      case CellKind::kDff:
        throw std::logic_error("RefEval: unexpected flop");
    }
    v[gate.out] = out;
  }
  std::vector<bool> outs;
  outs.reserve(nl_.outputs().size());
  for (NetId o : nl_.outputs()) outs.push_back(v[o] != 0);
  return outs;
}

std::string bitString(const std::vector<bool>& v) {
  std::string s;
  s.reserve(v.size());
  for (bool b : v) s += b ? '1' : '0';
  return s;
}

}  // namespace pb
