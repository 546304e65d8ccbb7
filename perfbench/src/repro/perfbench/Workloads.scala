package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.data.{Datasets, Queries}
import repro.datalog.{Catalog, Program, ProvQuestion}
import repro.summarize.Summarizer

/** One provenance question of a workload.
  *
  * @param data                 name of the workload dataset it runs over
  * @param expectedDerivations  exact |Prov| the question must yield, when
  *                             the paper gives a ground truth
  */
final case class Question(
    name: String,
    program: Program,
    data: String,
    pq: ProvQuestion,
    cfg: Summarizer.Config,
    expectedDerivations: Option[Long] = None,
)

/** @param warmup answered once after set-up and not measured: loads and
  *               JIT-compiles the paths the workload's questions run
  */
final case class Workload(
    name: String,
    datasets: Seq[(String, SparkSession => Catalog)],
    questions: Seq[Question],
    warmup: Question,
)

/** The benchmark's workloads. Each stresses different layers; see
  * `perfbench/README.md` for why each was chosen and why there is no
  * top-k workload. Dataset contents are fixed per workload; the run's seed
  * goes to the sampler.
  */
object Workloads {

  def apply(name: String, seed: Long): Workload = name match {
    case "whynot-sampled" =>
      val cfg = Summarizer.Config(nS = 1000, k = 3, seed = seed)
      val r1  = Question("whynotR1", Queries.r1, "license10k", Queries.whynotR1, cfg)
      // whynotR9 (hops(3) on DBLP 100K) is left out: its top-k search ran
      // 70 to 2700 pops depending on the seed, so top-k, which this workload
      // must keep small, set its run-to-run spread; and generating DBLP
      // tripled the workload's set-up.
      Workload(name,
        Seq("license10k" -> (Datasets.license(_, 10000L)), "movies5k" -> (Datasets.movies(_, 5000L))),
        Seq(r1, Question("whynotR4", Queries.r4, "movies5k", Queries.whynotR4, cfg)),
        warmup = r1)
    case "exact-patterns" =>
      val cfg = Summarizer.Config(nS = 5000, k = 5, seed = seed)
      val airbnb = Question("whynotAirbnb", Queries.airbnb, "airbnb", Queries.whynotAirbnb,
        cfg.copy(full = true), expectedDerivations = Some(2160L))
      Workload(name,
        Seq("airbnb" -> (Datasets.airbnb(_)), "license100k" -> (Datasets.license(_, 100000L))),
        Seq(airbnb, Question("whyR1", Queries.r1, "license100k", Queries.whyR1, cfg)),
        warmup = airbnb)
    case other =>
      throw new IllegalArgumentException(
        s"unknown workload '$other'; one of: ${names.mkString(", ")}")
  }

  val names: Seq[String] = Seq("whynot-sampled", "exact-patterns")
}
