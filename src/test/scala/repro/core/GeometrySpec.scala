package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Pure geometry: open-cover semantics, grid index ranges, box algebra. */
class GeometrySpec extends AnyFunSuite {

  test("coversOpen is strict on every edge") {
    val b = Box(0, 0, 1, 1)
    assert(b.coversOpen(0.5, 0.5))
    assert(!b.coversOpen(0.0, 0.5)); assert(!b.coversOpen(1.0, 0.5))
    assert(!b.coversOpen(0.5, 0.0)); assert(!b.coversOpen(0.5, 1.0))
    assert(!b.coversOpen(0.0, 0.0))
  }

  test("overlapsOpen excludes edge-touching boxes") {
    val b = Box(0, 0, 1, 1)
    assert(!b.overlapsOpen(Box(1, 0, 2, 1)))
    assert(!b.overlapsOpen(Box(0, 1, 1, 2)))
    assert(b.overlapsOpen(Box(0.5, 0.5, 2, 2)))
    assert(b.overlapsOpen(Box(-1, -1, 0.01, 0.01)))
  }

  test("containsBox accepts exact-fit and rejects any protrusion") {
    val b = Box(0, 0, 1, 1)
    assert(b.containsBox(Box(0, 0, 1, 1)))
    assert(b.containsBox(Box(0.2, 0.3, 0.4, 0.5)))
    assert(!b.containsBox(Box(-0.001, 0, 1, 1)))
    assert(!b.containsBox(Box(0, 0, 1.001, 1)))
  }

  test("union covers both, area is product") {
    val u = Box(0, 0, 1, 2).union(Box(3, -1, 4, 1))
    assert(u == Box(0, -1, 4, 2))
    assert(math.abs(Box(1, 1, 3, 4).area - 6.0) < 1e-12)
  }

  test("grid cell boxes tile the space") {
    val g = Grid(Box(0, 0, 1, 1), 4, 5)
    assert(math.abs(g.cellBox(0, 0).x0 - 0.0) < 1e-12)
    assert(math.abs(g.cellBox(3, 4).x1 - 1.0) < 1e-12)
    assert(math.abs(g.cellBox(3, 4).y1 - 1.0) < 1e-12)
    assert(g.cells == 20)
    assert(g.flat(3, 4) == 19)
  }

  test("colRange: interval strictly inside one cell") {
    val g = Grid(Box(0, 0, 1, 1), 10, 10)
    assert(g.colRange(0.11, 0.19) == (1, 1))
  }

  test("colRange: boundary-aligned interval excludes touching-only cells") {
    val g = Grid(Box(0, 0, 1, 1), 10, 10)
    // (0.1, 0.3) touches cell 0 only at 0.1 and cell 3 only at 0.3
    assert(g.colRange(0.1, 0.3) == (1, 2))
  }

  test("colRange clips to grid") {
    val g = Grid(Box(0, 0, 1, 1), 10, 10)
    assert(g.colRange(-5.0, 5.0) == (0, 9))
    assert(g.colRange(-5.0, -4.0) == (0, -1)) // empty
    assert(g.colRange(2.0, 3.0) == (0, -1))
  }

  // Property: a rectangle's (colRange × rowRange) matches per-cell
  // overlapsOpen — on adversarial lattice-aligned inputs where edges
  // coincide with cell boundaries.
  for (seed <- 1 to 20) test(s"range/classification matches per-cell predicates (seed $seed)") {
    val rng = new Random(seed)
    val g = Grid(Box(0, 0, 1, 1), 8, 8)
    for (_ <- 1 to 50) {
      // Half the time snap rect edges exactly to cell boundaries.
      def coord() = if (rng.nextBoolean()) rng.nextInt(9) / 8.0 else rng.nextDouble()
      val x1 = coord(); val x2 = coord(); val y1 = coord(); val y2 = coord()
      val r = Box(math.min(x1, x2), math.min(y1, y2),
                  math.max(x1, x2), math.max(y1, y2))
      val (ciLo, ciHi) = g.colRange(r.x0, r.x1)
      val (cjLo, cjHi) = g.rowRange(r.y0, r.y1)
      for (i <- 0 until 8; j <- 0 until 8) {
        val cell = g.cellBox(i, j)
        val inRange = i >= ciLo && i <= ciHi && j >= cjLo && j <= cjHi
        assert(inRange == r.overlapsOpen(cell),
               s"cell ($i,$j) range=$inRange overlap=${r.overlapsOpen(cell)} rect=$r")
      }
    }
  }

  test("degenerate grid rejected") {
    intercept[IllegalArgumentException](Grid(Box(0, 0, 1, 1), 0, 3))
    intercept[IllegalArgumentException](Box(1, 0, 0, 1))
  }
}
