package repro.perfbench

/** Minimal JSON writer for the benchmark's records: maps (insertion order
  * kept), sequences, strings, numbers, booleans and None/null.
  */
object Json {

  def apply(v: Any): String = v match {
    case null | None          => "null"
    case Some(x)              => apply(x)
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => num(d)
    case f: Float             => num(f.toDouble)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]      => xs.map(apply).mkString("[", ",", "]")
    case other                => quote(other.toString)
  }

  /** All digits as measured; JSON has no NaN or infinity, so those become null. */
  private def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else d.toString

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case '\n'         => b ++= "\\n"
      case '\r'         => b ++= "\\r"
      case '\t'         => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }
}
