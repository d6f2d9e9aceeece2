package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import SplitHeuristic.{DirtyCell, Child}

/** Function Split: coverage, bound propagation, and the progress safeguard. */
class SplitSpec extends AnyFunSuite {

  private def cell(x: Double, y: Double, s: Double, bound: Double) =
    DirtyCell(Box(x, y, x + s, y + s), bound)

  test("empty input yields no children") {
    assert(SplitHeuristic.split(IndexedSeq.empty).isEmpty)
  }

  test("single cell yields itself") {
    val c = cell(0, 0, 0.1, 2.0)
    assert(SplitHeuristic.split(IndexedSeq(c)) == Seq(Child(c.box, 2.0)))
  }

  for (seed <- 1 to 15) test(s"children cover all dirty cells, bounds are minima (seed $seed)") {
    val rng = new Random(seed)
    val cells = IndexedSeq.fill(rng.nextInt(40) + 2)(
      cell(rng.nextDouble(), rng.nextDouble(), 0.05, rng.nextDouble() * 10))
    val children = SplitHeuristic.split(cells)
    assert(children.size == 2)
    // every cell is inside some child MBR
    cells.foreach { c =>
      assert(children.exists(_.mbr.containsBox(c.box)), s"cell ${c.box} uncovered")
    }
    // each child's bound is the best bound of the cells it encloses entirely
    val globalBest = cells.map(_.bound).min
    assert(children.map(_.bound).min == globalBest)
    children.foreach(ch => assert(cells.exists(c => ch.mbr.containsBox(c.box))))
  }

  test("two far-apart clusters are separated") {
    val g1 = IndexedSeq(cell(0, 0, 0.05, 1), cell(0.05, 0.02, 0.05, 2))
    val g2 = IndexedSeq(cell(0.9, 0.9, 0.05, 3), cell(0.85, 0.92, 0.05, 4))
    val children = SplitHeuristic.split(g1 ++ g2)
    assert(children.size == 2)
    val areas = children.map(_.mbr.area).sum
    assert(areas < 0.2, s"MBRs should stay tight, total area $areas")
  }

  test("ensureProgress bisects a child spanning the whole parent") {
    val parent = Box(0, 0, 1, 0.5)
    val stuck = Child(parent, 1.0)
    val out = SplitHeuristic.ensureProgress(stuck, parent)
    assert(out.size >= 2)
    // geometric decay guarantee: every piece is at most 0.45x the parent area
    assert(out.forall(_.mbr.area <= 0.45 * parent.area + 1e-12))
    // pieces partition the child exactly
    assert(math.abs(out.map(_.mbr.area).sum - parent.area) <= 1e-12)
    assert(out.forall(_.bound == 1.0))
  }

  test("ensureProgress leaves a shrinking child alone") {
    val parent = Box(0, 0, 1, 1)
    val ok = Child(Box(0, 0, 0.4, 1), 1.0)
    assert(SplitHeuristic.ensureProgress(ok, parent) == Seq(ok))
  }
}
