// Fixture: the allow mechanism. A matching allow suppresses its finding
// and is reported as allowed; an allow naming a different rule suppresses
// nothing; an allow with no finding of its rule on its line is an error.
namespace raysched::core {

int next_ticket() {
  static int tickets = 0;  // raysched-check: allow(RS-D4)
  return ++tickets;
}

int next_id() {
  static int ids = 0;  // raysched-check: allow(RS-N4)
  return ++ids;
}

int successor(int x) {
  return x + 1;  // raysched-check: allow(RS-L6)
}

}  // namespace raysched::core
