package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.concurrent.TrieMap
import scala.util.Random

/** Deterministic small instances for correctness tests.
  *
  * Coordinates live on a binary lattice (default 1/64) inside the unit
  * square so the GPS accuracies (Def. 7) are exactly representable and the
  * drop condition behaves as in the paper; attributes exercise every
  * aggregator kind including selections and negative sum values.
  */
object TestGen {

  val Cats = Seq("A", "B", "C")

  final case class Obj(x: Double, y: Double, cat: String, v: Double, w: Double)

  def objs(n: Int, seed: Long, res: Double = 1.0 / 64): Seq[Obj] = {
    val rng = new Random(seed)
    def snap(d: Double) = math.rint(d / res) * res
    Seq.fill(n)(Obj(
      snap(rng.nextDouble()), snap(rng.nextDouble()),
      Cats(rng.nextInt(Cats.size)),
      rng.nextInt(11).toDouble,
      rng.nextInt(11) - 5.0,
    ))
  }

  private val frames = TrieMap.empty[(Int, Long, Double), DataFrame]

  /** [[objs]] as a cached DataFrame, made once per `(n, seed, res)`: tests
    * share it and never cache or unpersist it themselves.
    */
  def df(spark: SparkSession, n: Int, seed: Long, res: Double = 1.0 / 64): DataFrame =
    frames.getOrElseUpdate((n, seed, res), {
      import spark.implicits._
      objs(n, seed, res).toDF("x", "y", "cat", "v", "w").cache()
    })

  private val nullFrames = TrieMap.empty[(Int, Long), DataFrame]

  /** [[objs]] with about one in four `v` and `w` values and one in eight
    * `cat` values null, as a cached DataFrame made once per `(n, seed)` like
    * [[df]].
    */
  def dfWithNulls(spark: SparkSession, n: Int, seed: Long): DataFrame =
    nullFrames.getOrElseUpdate((n, seed), {
      import spark.implicits._
      val rng = new Random(seed * 13 + 1)
      def orNull[T](t: T, oneIn: Int) = if (rng.nextInt(oneIn) == 0) None else Some(t)
      objs(n, seed).map(o => (o.x, o.y, orNull(o.cat, 8), orNull(o.v, 4), orNull(o.w, 4)))
        .toDF("x", "y", "cat", "v", "w").cache()
    })

  /** A rotation of composite aggregators covering all kinds + selections. */
  def specs: Seq[CompositeAggregator] = Seq(
    CompositeAggregator.uniform(DistAgg("cat", Cats)),
    CompositeAggregator.uniform(AvgAgg("v")),
    CompositeAggregator.uniform(SumAgg("w")),
    CompositeAggregator.uniform(
      DistAgg("cat", Cats), AvgAgg("v"), SumAgg("w")),
    CompositeAggregator.uniform(
      DistAgg("cat", Cats, Some(Selection("cat", "A"))),
      AvgAgg("v", Some(Selection("cat", "B"))),
      SumAgg("w", Some(Selection("cat", "C")))),
    CompositeAggregator(
      Seq(DistAgg("cat", Cats), AvgAgg("v")),
      Array(0.5, 1.0, 2.0, 0.25)),
  )

  /** Target representation: the representation of a random region whose
    * corner is on the 1/64 lattice, so optimal distances are interesting
    * (often but not always 0) and the target region's edges can meet
    * objects' rectangle edges.
    */
  def target(spark: SparkSession, data: DataFrame, spec: CompositeAggregator,
             a: Double, b: Double, seed: Long): Array[Double] = {
    val rng = new Random(seed * 31 + 7)
    def lattice(d: Double) = math.floor(d * 64) / 64
    val qx = lattice(rng.nextDouble() * (1 - a)); val qy = lattice(rng.nextDouble() * (1 - b))
    Agg.representation(data, spec, Box(qx, qy, qx + a, qy + b))
  }

  def localRects(data: DataFrame, a: Double, b: Double, spec: CompositeAggregator): LocalRects =
    LocalRects.collect(Rects.build(data, a, b, spec), spec)
}
